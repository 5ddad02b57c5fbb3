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
//! Steps 1 and 2 are one collection round ([`Round`]) a prefix: the scan
//! pings every hitlist candidate (up to [`DEST_SCAN_LIMIT`]) at the round's
//! start and keeps the first two in candidate order that answer — the
//! hosts a serial scan finds, for the price of one probe timeout — and each
//! destination's RR pings go out as soon as it answers.
//!
//! [`IngressDb::build`] keeps many prefixes in flight: prefix `i` of its
//! list opens its round `i` slots ([`SLOT_MS`]) into the build, which is
//! one round of its own, so each prefix's survey is a function of the
//! prefix and its slot alone.
//!
//! The survey sees what a deployment sees: it reads a prefix's range, its
//! hitlist and the set-cover tie seed through the [`Prober`], and
//! [`IngressDb::build`] lends its pings sink trees — a worker's
//! [`ForwardTree`] toward the prefix, one of the [`ReplyTrees`] back to
//! each route's VPs — through each prefix's part of the build's round
//! ([`Prober::round_part`]).
//!
//! The output drives spoofed-probe VP selection: probe once per ingress,
//! from the closest VP to that ingress, in batches of three (§4.3). The
//! engine's first spoofed round carries the closest VP of each ingress
//! queue (up to three); every later round fills to three with the next
//! VPs in [`PlanView::try_order`] — depth-major across the queues — so the
//! VPs go out closest first and no 10 s collection round carries one VP
//! while others wait. A queue's later VPs are retries for probes that
//! missed its ingress: once a reply crossed the ingress without revealing
//! a new hop, the engine sends none of the VPs ranked after that one. The
//! surveyed ingress ranks and settles; it never discards a reply: one that
//! locates the target's stamp counts, whichever ingress it crossed, since
//! the hops after that stamp are written on the reply's way back.

use crate::parse::{path_view, Heuristics, PathView};
use revtr_netsim::hash::mix3;
use revtr_netsim::inline::InlineVec;
use revtr_netsim::pool;
use revtr_netsim::{Addr, Prefix, PrefixId, RrReply, RrSlots, RrTarget, RR_SLOTS};
use revtr_probing::prober::PROBE_TIMEOUT_MS;
use revtr_probing::{ForwardTree, Prober, ReplyTree, ReplyTrees, Round};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum host addresses ping-scanned per prefix when hunting for
/// responsive destinations.
pub const DEST_SCAN_LIMIT: usize = 12;

/// Responsive destinations surveyed per prefix (§4.3: two suffice).
pub const DESTS_PER_PREFIX: usize = 2;
// A VP's mean distance over them is a whole number of halves.
const _: () = assert!(DESTS_PER_PREFIX == 2);

/// A prefix's responsive destinations, held inline.
type Dests = InlineVec<Addr, DESTS_PER_PREFIX>;

/// VPs kept per ingress queue (paper: give up on an ingress after five
/// VPs fail to traverse it). Traversing is what the queue is for: the
/// engine tries the next VP only while the queue's VPs miss the ingress
/// and reveal no new hop, and a reply that crossed it settles the queue.
/// A reply that missed it still counts when it locates the target's
/// stamp: the ingress orders the VPs, it does not judge their replies.
pub const VPS_PER_INGRESS: usize = 5;

/// RR range: a VP is "in range" of a destination it reaches within this
/// many RR slots (one slot must remain for a reverse hop).
pub const RR_RANGE: usize = 8;

/// An ingress's VP queue: at most [`VPS_PER_INGRESS`] VPs, held inline.
pub type VpQueue = InlineVec<Addr, VPS_PER_INGRESS>;

/// A selected ingress and its VP queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IngressInfo {
    /// The ingress address.
    pub addr: Addr,
    /// Number of VPs whose paths traverse this ingress.
    pub cover: usize,
    /// Covering VPs, closest (fewest RR slots) first, capped at
    /// [`VPS_PER_INGRESS`] — the queue's capacity.
    pub ranked_vps: VpQueue,
}

/// Everything the system keeps about one surveyed prefix: the plan, and of
/// the per-VP views behind it only what is read afterwards — who was in
/// range, who was closest, and which addresses were ingress candidates.
///
/// A surveyed prefix is at most two heap blocks: its ingress list (each
/// VP queue inline) and one block holding the in-range set, the candidates
/// and the fallback ranking; the destinations are inline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrefixInfo {
    /// The responsive destinations probed (≤ 2).
    pub dests: InlineVec<Addr, DESTS_PER_PREFIX>,
    /// Selected ingresses, ordered by VP coverage (descending).
    pub ingresses: Vec<IngressInfo>,
    /// The in-range set's cells, then every VP's ingress candidates
    /// (sorted, distinct), then the fallback ranking. In-range bit `i` —
    /// the `i`-th VP of the surveyed list reached the destinations within
    /// [`RR_RANGE`] slots (mean over those reached) — is bit `i % 32` of
    /// cell `i / 32`; the cells come in pairs, the set's 64-bit words.
    held: Box<[Addr]>,
    /// Where the candidates start in `held`: the in-range cells' count.
    candidates_at: u32,
    /// Where the fallback ranking starts in `held`.
    fallback_at: u32,
    /// The VP with the smallest mean RR slot distance to the destinations
    /// (ties: lowest address), among those that measured one at all.
    closest_vp: Option<Addr>,
}

/// One queue of VPs to try, with the ingress the choice is based on.
#[derive(Clone, Debug)]
pub struct IngressQueue {
    /// The ingress address this queue targets (`None` for the fallback
    /// ranking of ingress-less prefixes, and for a lent plan).
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
    /// Another prefix's ingress queues, lent to a target the survey never
    /// measured (an address outside every announced prefix) or left
    /// without a plan ([`IngressDb::target_plan`]): the same queues in the
    /// same order, with no ingress expectation — those ingresses were
    /// measured toward the lending prefix's hosts.
    Lent(&'a [IngressInfo]),
    /// One queue with no ingress expectation (a fallback or global
    /// ranking) — or no queue at all when the ranking is empty.
    Ranking(&'a [Addr]),
}

impl<'a> PlanView<'a> {
    /// Number of queues.
    pub fn len(&self) -> usize {
        match self {
            PlanView::Ingresses(i) | PlanView::Lent(i) => i.len(),
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
            PlanView::Ingresses(ing) => (Some(ing[i].addr), &ing[i].ranked_vps[..]),
            PlanView::Lent(ing) => (None, &ing[i].ranked_vps[..]),
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

    /// The plan's try order: depth-major across the queues — the closest
    /// VP of every queue in queue order, then every queue's second, and so
    /// on — each VP with the ingress its reply must traverse, if the plan
    /// expects one. A VP in two queues comes up once per queue. The
    /// engine's spoofed ladder issues a plan's VPs in this order, three to
    /// a batch, and the §5.3 evaluation reads plans in it.
    pub fn try_order(self) -> impl Iterator<Item = (Option<Addr>, Addr)> + 'a {
        let deepest = self.queues().map(|(_, vps)| vps.len()).max().unwrap_or(0);
        (0..deepest).flat_map(move |depth| {
            (self.queues()).filter_map(move |(ingress, vps)| Some((ingress, *vps.get(depth)?)))
        })
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
            PlanView::Ranking(self.fallback())
        } else {
            PlanView::Ingresses(&self.ingresses)
        }
    }

    /// Whether the VP at position `vp_index` of the surveyed list was in
    /// RR range of the prefix.
    pub fn in_range_at(&self, vp_index: usize) -> bool {
        self.held[..self.candidates_at as usize]
            .get(vp_index / 32)
            .is_some_and(|cell| cell.0 >> (vp_index % 32) & 1 == 1)
    }

    /// For prefixes without identified ingresses: the in-range VPs ranked
    /// by mean distance to the destinations (§4.3 fallback; ties: lowest
    /// address).
    pub fn fallback(&self) -> &[Addr] {
        &self.held[self.fallback_at as usize..]
    }

    /// The VP closest to the prefix by measured mean RR slot distance
    /// (lowest address on a tie); `None` when no VP measured a distance.
    pub fn closest_vp(&self) -> Option<Addr> {
        self.closest_vp
    }

    /// The ingress candidates of all VPs, sorted and distinct.
    pub fn candidates(&self) -> &[Addr] {
        &self.held[self.candidates_at as usize..self.fallback_at as usize]
    }

    /// Logical bytes held on the heap (lengths, not capacities): the block
    /// and the ingress list. The destinations and the queues are inline,
    /// priced in the table slot and the ingress.
    fn heap_bytes(&self) -> usize {
        self.held.len() * size_of::<Addr>() + self.ingresses.len() * size_of::<IngressInfo>()
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
    /// ([`revtr_probing::Round::rr_ping`]): they are VP→scan-destination
    /// RR pings no reverse-traceroute measurement ever re-issues (the
    /// engine probes source→hop), so caching them only bloats the store —
    /// they were ~94% of all inserts at an ~0.8% overall hit rate before
    /// this was turned off. Within one build the survey never self-hits
    /// (each (vp, dest) pair is probed once), so skipping the cache does
    /// not change the probes sent or the replies seen.
    ///
    /// Every ping of a prefix goes to a host of the prefix, and every
    /// prefix's replies walk back to the same VPs, so the build keeps a
    /// sink tree per route — a worker's toward the prefix in hand, one back
    /// to each VP prefix ([`ReplyTrees`]) — and lends them to its pings,
    /// visiting the VPs route by route so that each ping replays what it
    /// can of the last: same probes, same replies as [`probe_prefix_in`]
    /// at each prefix's slot, most hops read instead of derived.
    ///
    /// The build is one round ([`Prober::round`]): prefix `i` of the list
    /// (distinct prefixes) opens its own round `i` slots ([`SLOT_MS`]) into
    /// it, and the build charges the clock once as it closes, by its `N`
    /// slots or its latest prefix's end, whichever is later. No probe of
    /// the build flushes time into the simulator: churn moves nothing under
    /// it. The prefixes run on a pool as wide as the host's cores
    /// ([`revtr_netsim::pool`]): workers claim whole prefixes, each lending
    /// its own forward trees. Every probe's outcome is a function of the
    /// packet and its send instant, so the survey is the same at every
    /// width — except under an armed ICMP rate limiter, whose buckets
    /// answer in the order replies are made: the build then runs at width 1.
    pub fn build(
        prober: &Prober<'_>,
        vps: &[Addr],
        prefixes: &[PrefixId],
        h: Heuristics,
    ) -> IngressDb {
        let width = if prober.order_free() {
            pool::cores()
        } else {
            1
        };
        IngressDb::build_at(prober, vps, prefixes, h, width)
    }

    /// [`IngressDb::build`] on `width` workers, the same survey at every
    /// width as long as the prober's fates are order-free
    /// ([`Prober::order_free`]).
    pub(crate) fn build_at(
        prober: &Prober<'_>,
        vps: &[Addr],
        prefixes: &[PrefixId],
        h: Heuristics,
        width: usize,
    ) -> IngressDb {
        let mut per_prefix = Vec::new();
        per_prefix.resize_with(
            prefixes.iter().map(|p| p.index() + 1).max().unwrap_or(0),
            || None,
        );
        let trees = ReplyTrees::new(prober, vps);
        let survey = Survey {
            prober,
            vps,
            h,
            replies: Some(&trees),
        };
        survey_on_pool(survey, prefixes, width, &mut per_prefix);
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
        let mut order: Vec<(std::cmp::Reverse<usize>, Addr)> =
            vps.iter().map(|&vp| (std::cmp::Reverse(0), vp)).collect();
        for (_, info) in self.prefixes() {
            for (i, (count, _)) in order.iter_mut().enumerate() {
                count.0 += usize::from(info.in_range_at(i));
            }
        }
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

    /// The revtr 2.0 plan for a probe target, by the first rung of this
    /// chain that has a plan:
    ///
    /// 1. the target's own plan key `key` — its prefix, or a prefix it
    ///    borrows (`(prefix, true)`, lent without ingresses);
    /// 2. the first of `siblings` (the prefixes its block owner announces)
    ///    with a plan, lent: ingress queues as [`PlanView::Lent`], a
    ///    fallback ranking as it is — those ingresses were measured toward
    ///    the sibling's hosts;
    /// 3. the head of the global order: its first nine VPs as one
    ///    ranking, which sends a single VP in a ladder's first round.
    pub fn target_plan(
        &self,
        key: Option<(PrefixId, bool)>,
        siblings: impl IntoIterator<Item = PrefixId>,
    ) -> PlanView<'_> {
        let lend = |plan| match plan {
            PlanView::Ingresses(ingresses) => PlanView::Lent(ingresses),
            plan => plan,
        };
        let own = key.map(|(p, borrowed)| match self.plan_view(p) {
            plan if borrowed => lend(plan),
            plan => plan,
        });
        own.into_iter()
            .chain(siblings.into_iter().map(|p| lend(self.plan_view(p))))
            .find(|plan| !plan.is_empty())
            .unwrap_or_else(|| {
                PlanView::Ranking(&self.global_order[..self.global_order.len().min(9)])
            })
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
        let mut plan = Vec::new();
        self.revtr1_plan_into(p, &mut plan);
        plan
    }

    /// [`IngressDb::revtr1_plan`] written over `plan`, whose buffer a
    /// caller walking many plans reuses.
    pub fn revtr1_plan_into(&self, p: PrefixId, plan: &mut Vec<Addr>) {
        plan.clear();
        for near in [true, false] {
            plan.extend((self.global_order.iter()).filter(|&&vp| self.in_range(p, vp) == near));
        }
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
/// [`PrefixInfo`], as one round of its own. Like [`IngressDb::build`], past
/// the measurement cache; unlike it, every walk derived hop by hop — one
/// prefix has no tree to share with the next call, and a fresh one per call
/// would cost more than the call's whole working memory.
pub fn probe_prefix(prober: &Prober<'_>, vps: &[Addr], p: PrefixId, h: Heuristics) -> PrefixInfo {
    probe_prefix_in(&mut prober.round(), prober, vps, p, h)
}

/// [`probe_prefix`] into `round`, which `prober` opened: the prefix's own
/// round, or a part of a wider one ([`Prober::round_part`]) — such as the
/// part [`IngressDb::build`] opens at the prefix's slot, whose survey this
/// is, minus the build's sink trees.
pub fn probe_prefix_in(
    round: &mut Round<'_, '_>,
    prober: &Prober<'_>,
    vps: &[Addr],
    p: PrefixId,
    h: Heuristics,
) -> PrefixInfo {
    let survey = Survey {
        prober,
        vps,
        h,
        replies: None,
    };
    SurveyScratch::new(vps.len()).survey(&survey, round, p, 0)
}

/// How long a prefix's round may last in [`IngressDb::build`]: the longest
/// a loss-free round lasts — a scan ping, then an RR ping sent when its
/// host answered, each done within a probe timeout. Prefix `i` of the
/// build's list opens its round `i` slots into the build.
pub const SLOT_MS: f64 = 2.0 * PROBE_TIMEOUT_MS;

/// What every prefix of a survey is surveyed with: the prober, the VPs
/// (distinct addresses), the heuristics, and the VPs' reply trees, if the
/// survey lends its pings trees.
struct Survey<'a, 's> {
    prober: &'a Prober<'s>,
    vps: &'a [Addr],
    h: Heuristics,
    replies: Option<&'a ReplyTrees>,
}

/// Step 1 of the survey: up to two responsive destinations of `p`, in
/// candidate order, pinged from the first VP (any source works:
/// responsiveness is a destination property) into the prefix's round as
/// one [`wave`] — the replies walking back along the first VP's tree, if
/// the survey keeps them; with the wave, whose `found[k]` is when
/// destination `k` answered.
fn responsive_dests(round: &mut Round<'_, '_>, s: &Survey<'_, '_>, p: PrefixId) -> (Dests, Wave) {
    let mut cands = [Addr(0); DEST_SCAN_LIMIT];
    let n = (cands.iter_mut().zip(s.prober.host_addrs(p)))
        .map(|(c, a)| *c = a)
        .count();
    // No VP, no pinger: nothing to scan with.
    let Some(&pinger) = s.vps.first() else {
        return (Dests::new(), wave(0, |_| (false, 0.0)));
    };
    let answered = |(reply, chain_ms): (Option<_>, f64)| (reply.is_some(), chain_ms);
    let wave = match s.replies {
        None => wave(n, |i| {
            answered(round.ping(0.0, &round.endpoint(pinger), cands[i], None))
        }),
        Some(trees) => {
            // Route 0's first VP is the first VP, resolved with its tree.
            let (mut tree, &(_, pinger)) = (trees.tree(0), &trees.vps(0)[0]);
            wave(n, |i| {
                answered(round.ping(0.0, &pinger, cands[i], Some(&mut tree)))
            })
        }
    };
    let dests = wave.found[..wave.len].iter().map(|&(i, _)| cands[i]);
    (dests.collect(), wave)
}

/// The scan's answers over candidates `0..n`: the first two that answered,
/// in candidate order, each with the instant its reply came in, in ms from
/// the start of the prefix's round.
#[derive(Clone, Copy)]
struct Wave {
    found: [(usize, f64); DESTS_PER_PREFIX],
    len: usize,
}

/// Ping candidates `0..n` at once, at the round's start. `send(i)` sends
/// candidate `i` then and returns whether it answered and its chain's
/// length, so an answer comes in at its chain's end and the wave lasts its
/// longest chain.
///
/// The serial rule pings candidates in order until two answer, so it finds
/// the first two that answer at all: the wave keeps exactly those, and
/// finds each when its own chain ends rather than after every earlier
/// candidate's.
fn wave(n: usize, mut send: impl FnMut(usize) -> (bool, f64)) -> Wave {
    let mut w = Wave {
        found: [(0, 0.0); DESTS_PER_PREFIX],
        len: 0,
    };
    for i in 0..n {
        let (answered, chain_ms) = send(i);
        if answered && w.len < DESTS_PER_PREFIX {
            w.found[w.len] = (i, chain_ms);
            w.len += 1;
        }
    }
    w
}

/// One `(ingress candidate, VP)` incidence of a prefix's survey.
#[derive(Clone, Copy)]
struct Incidence {
    /// The candidate: its address until the run is indexed
    /// ([`Groups::fill`]), then its slot in the index — [`COVERED`] once
    /// the VP is covered by an ingress already picked.
    key: u32,
    /// Position of the VP in the surveyed list.
    vp_at: u16,
    /// Rank of the candidate among those on the VP's first parsed path —
    /// the slot-distance order its queue is ranked by.
    dist: u8,
    /// How many of the VP's incidences follow this one in the run.
    rest: u8,
}

/// [`Incidence::key`] of a covered VP's incidences.
const COVERED: u32 = u32::MAX;

/// The per-VP rows of a prefix's survey, before its set cover: each VP's
/// views folded in, in the order the VPs were visited.
struct Rows {
    /// Every VP's candidates as one run, VP by VP in the order they were
    /// folded in: a VP's incidences are contiguous, so covering a VP is a
    /// walk over its own.
    run: Vec<Incidence>,
    /// `(twice the mean distance << 32 | vp, position in the surveyed
    /// list)` of the in-range VPs — the mean of at most two integers is a
    /// whole number of halves, so the key orders by `(mean distance, vp)`:
    /// the fallback ranking and the in-range bits.
    near: Vec<(u64, u32)>,
    /// The smallest `(mean distance, vp)` measured.
    closest: Option<(f64, Addr)>,
}

impl Rows {
    /// Rows for `n_vps` VPs, the run sized for `per_vp` candidates a VP.
    fn new(n_vps: usize, per_vp: usize) -> Rows {
        Rows {
            run: Vec::with_capacity(per_vp * n_vps),
            near: Vec::with_capacity(n_vps),
            closest: None,
        }
    }

    fn clear(&mut self) {
        self.run.clear();
        self.near.clear();
        self.closest = None;
    }

    /// Fold VP `vp`, at position `vp_at` of the surveyed list, in: its
    /// views of the destinations that answered its RR pings, in
    /// destination order.
    fn fold(&mut self, vp_at: usize, vp: Addr, views: &[PathView]) {
        let Some((first, rest)) = views.split_first() else {
            return;
        };
        let at = u16::try_from(vp_at).expect("at most 65 536 VPs");
        let (sum, reached) = (views.iter())
            .filter_map(|v| v.dest_dist)
            .fold((0, 0), |(sum, n), d| (sum + d, n + 1));
        if reached > 0 {
            let dist = sum as f64 / reached as f64;
            // Ties: the lower address.
            if self.closest.is_none_or(|best| (dist, vp) < best) {
                self.closest = Some((dist, vp));
            }
            let twice = 2 * sum / reached;
            if twice <= 2 * RR_RANGE {
                self.near
                    .push(((twice as u64) << 32 | u64::from(vp.0), vp_at as u32));
            }
        }
        // Candidates on *both* paths (or the single path if only one
        // destination answered RR).
        let start = self.run.len();
        for (rank, &cand) in first.candidates.iter().enumerate() {
            if rest.iter().all(|v| v.candidates.contains(&cand)) {
                self.run.push(Incidence {
                    key: cand.0,
                    vp_at: at,
                    dist: rank as u8,
                    rest: 0,
                });
            }
        }
        let span = self.run.len() - start;
        if let Some(head) = self.run.get_mut(start) {
            head.rest = (span - 1) as u8;
        }
    }
}

/// A candidate of a prefix's set cover: its address and how many uncovered
/// VPs' paths carry it.
#[derive(Clone, Copy, Default)]
struct Group {
    cand: Addr,
    /// 0 marks an empty slot while the run is grouped; once it is, counts
    /// only fall.
    cover: u32,
}

/// A prefix's candidate index: its run's candidates in an open-addressed
/// table, one and a half slots an incidence, each with its count.
struct Groups {
    slots: Vec<Group>,
}

impl Groups {
    /// The slot probing for `cand` starts at.
    fn home(&self, cand: Addr) -> usize {
        let hash = u64::from(cand.0.wrapping_mul(0x9e37_79b9));
        ((hash * self.slots.len() as u64) >> 32) as usize
    }

    fn next(&self, at: usize) -> usize {
        if at + 1 == self.slots.len() {
            0
        } else {
            at + 1
        }
    }

    /// Index `run` by candidate, each with its count of incidences, and
    /// key each incidence by its candidate's slot; returns how many
    /// distinct candidates the index holds.
    fn fill(&mut self, run: &mut [Incidence]) -> usize {
        self.slots.clear();
        self.slots
            .resize(run.len() + run.len() / 2 + 1, Group::default());
        let mut distinct = 0;
        for i in run {
            let cand = Addr(i.key);
            let mut at = self.home(cand);
            loop {
                let g = &mut self.slots[at];
                if g.cover == 0 {
                    g.cand = cand;
                    distinct += 1;
                }
                if g.cand == cand {
                    g.cover += 1;
                    break;
                }
                at = self.next(at);
            }
            i.key = at as u32;
        }
        distinct
    }

    /// The slot of the candidate with the largest `(cover, tie,
    /// candidate)` key among those on an uncovered VP's path, if any,
    /// handing `each` every such candidate in slot order on the way. A
    /// tie-break is hashed only between equal covers, the best's once.
    fn best(&self, tie: impl Fn(Addr) -> u64, mut each: impl FnMut(Addr)) -> Option<usize> {
        let mut best: Option<(usize, Option<u64>)> = None;
        for (at, g) in self.slots.iter().enumerate().filter(|(_, g)| g.cover > 0) {
            each(g.cand);
            best = match best {
                Some((b, b_tie)) if g.cover < self.slots[b].cover => Some((b, b_tie)),
                Some((b, b_tie)) if g.cover == self.slots[b].cover => {
                    let b_cand = self.slots[b].cand;
                    let (b_tie, g_tie) = (b_tie.unwrap_or_else(|| tie(b_cand)), tie(g.cand));
                    if (g_tie, g.cand) > (b_tie, b_cand) {
                        Some((at, Some(g_tie)))
                    } else {
                        Some((b, Some(b_tie)))
                    }
                }
                _ => Some((at, None)),
            };
        }
        best.map(|(at, _)| at)
    }
}

/// What one VP's RR pings of a prefix's round saw: its views of the
/// destinations that answered, in destination order.
#[derive(Default)]
struct Views {
    views: [PathView; DESTS_PER_PREFIX],
    answered: usize,
}

/// Destination `k`'s last reply of a prefix's round and its view: the
/// next VP's reply often carries the same slots — its legs replayed the
/// last — and then has the same view.
type Seen = [Option<(RrSlots, PathView)>; DESTS_PER_PREFIX];

impl Views {
    /// Steps 2–3 for one VP: RR-ping each destination, destination `k` as
    /// soon as its scan ping answered (`found[k]`), through `rr_ping(at,
    /// target)`, and parse each reply against the prefix — unless it is the
    /// one `seen` holds.
    fn ping(
        mut rr_ping: impl FnMut(f64, &RrTarget) -> Option<RrReply>,
        targets: &[RrTarget],
        found: &[(usize, f64)],
        (prefix, h): (Prefix, Heuristics),
        seen: &mut Seen,
    ) -> Views {
        let mut v = Views::default();
        for ((target, &(_, at_ms)), seen) in targets.iter().zip(found).zip(seen) {
            if let Some(r) = rr_ping(at_ms, target) {
                v.views[v.answered] = match seen {
                    Some((slots, view)) if *slots == r.slots => *view,
                    _ => seen.insert((r.slots, path_view(&r.slots, prefix, h))).1,
                };
                v.answered += 1;
            }
        }
        v
    }

    fn answered(&self) -> &[PathView] {
        &self.views[..self.answered]
    }
}

/// Working memory of the survey, sized by the VP list and reused from one
/// prefix to the next.
struct SurveyScratch {
    /// The prefix's per-VP rows.
    rows: Rows,
    /// The prefix's candidate index.
    groups: Groups,
    /// Ingresses picked so far, copied out at their exact count.
    picked: Vec<IngressInfo>,
    /// The prefix's last reply per destination, and its view.
    seen: Seen,
    /// Routes whose reply tree another worker held when visited: left for
    /// after the others.
    busy: Vec<u32>,
}

impl SurveyScratch {
    /// Scratch for one prefix's survey: era-2020 prefixes average under
    /// three shared candidates a VP; one in seven has more than four and
    /// doubles the run once. The candidate index is made once the run is
    /// in, at the run's size.
    fn new(n_vps: usize) -> SurveyScratch {
        SurveyScratch::sized(n_vps, 4, 16, 0)
    }

    /// Scratch for a build's worker, sized once for the worst case — a VP
    /// brings at most nine candidates, a pick covers at least one VP, there
    /// are at most as many routes as VPs — so that what it allocates does
    /// not depend on the prefixes it claims.
    fn for_build(n_vps: usize) -> SurveyScratch {
        let mut scratch = SurveyScratch::sized(n_vps, RR_SLOTS, n_vps, n_vps);
        let worst = RR_SLOTS * n_vps;
        scratch.groups.slots.reserve_exact(worst + worst / 2 + 1);
        scratch
    }

    fn sized(n_vps: usize, per_vp: usize, picks: usize, routes: usize) -> SurveyScratch {
        SurveyScratch {
            rows: Rows::new(n_vps, per_vp),
            groups: Groups { slots: Vec::new() },
            picked: Vec::with_capacity(picks),
            seen: Seen::default(),
            busy: Vec::with_capacity(routes),
        }
    }

    /// §4.3 for prefix `p`, into `round`: the scan's pings, then one RR
    /// ping per (VP, destination), each sent when its destination's scan
    /// ping answered, visiting the VPs from position `from` on (wrapping
    /// around). The probes' instants are fixed by the round and the
    /// answers, and every choice among VPs is made on their addresses,
    /// never their positions or visiting order, so a permuted VP list or
    /// another `from` gives the same answer.
    fn survey(
        &mut self,
        s: &Survey<'_, '_>,
        round: &mut Round<'_, '_>,
        p: PrefixId,
        from: usize,
    ) -> PrefixInfo {
        let scan = responsive_dests(round, s, p);
        if scan.0.is_empty() {
            return PrefixInfo::default();
        }
        self.survey_dests(s, round, p, from, scan)
    }

    /// Steps 2–5 of [`SurveyScratch::survey`], on the destinations the scan
    /// found (at least one) and its wave. If the survey keeps reply trees,
    /// the VPs are visited route by route, from route `from` on, each
    /// route's tree held for all its VPs' RR pings; else VP by VP, from
    /// position `from` on.
    fn survey_dests(
        &mut self,
        s: &Survey<'_, '_>,
        round: &mut Round<'_, '_>,
        p: PrefixId,
        from: usize,
        (dests, wave): (Dests, Wave),
    ) -> PrefixInfo {
        self.rows.clear();
        self.seen = Seen::default();
        let found = &wave.found[..wave.len];
        // Each destination resolved once for its RR pings from every VP.
        let targets: InlineVec<RrTarget, DESTS_PER_PREFIX> =
            dests.iter().map(|&d| round.rr_target(d)).collect();
        let parse = (s.prober.prefix(p), s.h);
        let (rows, seen) = (&mut self.rows, &mut self.seen);
        match s.replies {
            None => {
                let n_vps = s.vps.len();
                for v in (from..n_vps).chain(0..from) {
                    let rr_ping = |at_ms, d: &RrTarget| {
                        round.rr_ping(at_ms, &round.endpoint(s.vps[v]), d, None)
                    };
                    let views = Views::ping(rr_ping, &targets, found, parse, seen);
                    rows.fold(v, s.vps[v], views.answered());
                }
            }
            Some(trees) => {
                let mut visit = |r: usize, tree: &mut ReplyTree| {
                    for &(v, vp) in trees.vps(r) {
                        let rr_ping =
                            |at_ms, d: &RrTarget| round.rr_ping(at_ms, &vp, d, Some(&mut *tree));
                        let views = Views::ping(rr_ping, &targets, found, parse, seen);
                        rows.fold(v as usize, vp.addr(), views.answered());
                    }
                };
                // A route another worker is visiting waits for the rest.
                self.busy.clear();
                for r in (from..trees.len()).chain(0..from) {
                    match trees.try_tree(r) {
                        Some(mut tree) => visit(r, &mut tree),
                        None => self.busy.push(r as u32),
                    }
                }
                for &r in &self.busy {
                    visit(r as usize, &mut trees.tree(r as usize));
                }
            }
        }
        self.finish(s.prober, s.vps, p, dests)
    }

    /// Steps 4–5 on the rows of all the VPs, as the prefix's
    /// [`PrefixInfo`]; the set cover's ties go to a hash of the candidate
    /// seeded by the prober's seed and the prefix.
    fn finish(
        &mut self,
        prober: &Prober<'_>,
        vps: &[Addr],
        p: PrefixId,
        dests: Dests,
    ) -> PrefixInfo {
        let tie_seed = prober.seed() ^ 0x5e7c;
        self.finish_with(vps, dests, |cand| {
            mix3(tie_seed, u64::from(cand.0), u64::from(p.0))
        })
    }

    /// Steps 4–5 with the set cover's tie-break `tie`: the in-range bits,
    /// the candidate set, the fallback ranking and the greedy cover. The
    /// VPs may have been folded in any order: the run is indexed by
    /// candidate, and only the index's counts and candidates are read until
    /// a winner's VPs are ranked; every key ranked on is unique —
    /// `(candidate cover, tie, candidate)` among the candidates, `(distance,
    /// vp)` in a queue (a view lists a candidate once), in the fallback
    /// ranking and for the closest VP — so the answer is the VP order's.
    /// Only the distinct candidates and the fallback ranking are sorted;
    /// a winner's queue keeps its closest VPs in order as they are met.
    fn finish_with(&mut self, vps: &[Addr], dests: Dests, tie: impl Fn(Addr) -> u64) -> PrefixInfo {
        let distinct = self.groups.fill(&mut self.rows.run);
        let near = &mut self.rows.near;
        // The in-range cells, the candidates and the fallback ranking, in
        // one block cut to size.
        let cells = vps.len().div_ceil(64) * 2;
        let mut held = Vec::with_capacity(cells + distinct + near.len());
        held.resize(cells, Addr(0));
        for &(_, at) in near.iter() {
            held[at as usize / 32].0 |= 1 << (at % 32);
        }
        // The first pick's scan collects the candidates.
        let first = self.groups.best(&tie, |cand| held.push(cand));
        held[cells..].sort_unstable();
        // 5. Fallback ranking for ingress-less prefixes.
        near.sort_unstable();
        let fallback_at = held.len();
        held.extend(near.iter().map(|&(key, _)| Addr(key as u32)));

        self.cover(vps, tie, first);
        PrefixInfo {
            dests,
            ingresses: self.picked.drain(..).collect(),
            held: held.into_boxed_slice(),
            candidates_at: cells as u32,
            fallback_at: fallback_at as u32,
            closest_vp: self.rows.closest.map(|(_, vp)| vp),
        }
    }

    /// Step 4, the greedy set cover of VPs by candidate ingress: pick the
    /// candidate on the most uncovered VPs' paths (ties: `tie`, then the
    /// higher address), cover those VPs, repeat. Covering a VP takes it
    /// off its own candidates' counts; counts only fall, so the picks come
    /// out in coverage order. `first` is the first pick, if the caller
    /// scanned for it.
    fn cover(&mut self, vps: &[Addr], tie: impl Fn(Addr) -> u64, mut first: Option<usize>) {
        let (run, groups) = (&mut self.rows.run, &mut self.groups);
        let mut uncovered = run.len();
        while uncovered > 0 {
            let best = (first.take())
                .or_else(|| groups.best(&tie, |_| {}))
                .expect("an uncovered VP has a candidate");
            let Group { cand, cover } = groups.slots[best];
            // The winner's VPs, covered as they are met, VP by VP; the
            // closest (ties: lowest address) kept in order for its queue.
            let mut queue = [(u8::MAX, Addr(0)); VPS_PER_INGRESS];
            let mut queued = 0;
            let mut at = 0;
            while at < run.len() {
                let span = at..at + usize::from(run[at].rest) + 1;
                at = span.end;
                let Some(won) = run[span.clone()].iter().find(|i| i.key as usize == best) else {
                    continue;
                };
                let entry = (won.dist, vps[usize::from(won.vp_at)]);
                for i in &mut run[span.clone()] {
                    groups.slots[i.key as usize].cover -= 1;
                    i.key = COVERED;
                }
                uncovered -= span.len();
                if queued == VPS_PER_INGRESS && entry > queue[queued - 1] {
                    continue;
                }
                let place = queue[..queued].partition_point(|&e| e < entry);
                queued = (queued + 1).min(VPS_PER_INGRESS);
                queue[place..queued].rotate_right(1);
                queue[place] = entry;
            }
            self.picked.push(IngressInfo {
                addr: cand,
                cover: cover as usize,
                ranked_vps: queue[..queued].iter().map(|&(_, vp)| vp).collect(),
            });
        }
        debug_assert!(self.picked.windows(2).all(|w| w[0].cover >= w[1].cover));
    }
}

/// The build's side of the pool: the prefix list, claimed whole by the
/// workers ([`pool::Claims`]), each prefix surveyed in a part of the
/// build's round opened at its slot, its VPs' reply trees shared, and
/// where each prefix's survey goes. A prefix's survey is a function of the
/// prefix and its slot alone — a probe's outcome is one of the packet and
/// its send instant, the world stands still while the build's round is
/// open, and the trees a survey borrows are caches — so which worker
/// surveys which prefix, and when, changes nothing the build keeps.
struct Build<'a, 's> {
    survey: Survey<'a, 's>,
    prefixes: &'a [PrefixId],
    /// The build's start: prefix `i`'s round opens `i` slots past it.
    start_ms: f64,
    width: usize,
    claims: pool::Claims,
    /// Helpers hired so far: the next one's worker index (the owner is 0).
    hired: AtomicUsize,
    /// By [`PrefixId`]: each prefix's survey, written once.
    per_prefix: Mutex<&'a mut [Option<PrefixInfo>]>,
    /// The latest round end so far, from the build's start.
    end_ms: Mutex<f64>,
}

/// A survey worker: its index among the pool's workers (the owner's is 0),
/// the forward tree it lends its pings and its working memory.
struct Worker {
    at: usize,
    forward: ForwardTree,
    scratch: SurveyScratch,
}

impl Worker {
    fn new(prober: &Prober<'_>, at: usize, n_vps: usize) -> Worker {
        Worker {
            at,
            forward: ForwardTree::new(prober),
            scratch: SurveyScratch::for_build(n_vps),
        }
    }
}

impl Build<'_, '_> {
    /// `worker`'s share of the build: claim prefixes until none is left
    /// and survey each in a part of the build's round at its slot, visiting
    /// the VPs' routes from an offset of the worker's own, so that workers
    /// seldom wait on one another's reply trees.
    fn survey(&self, worker: &mut Worker) {
        let s = &self.survey;
        let routes = s.replies.map_or(s.vps.len(), ReplyTrees::len);
        let from = worker.at * routes / self.width;
        let mut end_ms = 0.0f64;
        for i in self.claims.claims(worker.at) {
            let slot_ms = i as f64 * SLOT_MS;
            let forward = Some(&mut worker.forward);
            let mut round = s.prober.round_part(self.start_ms + slot_ms, forward);
            let p = self.prefixes[i];
            let info = worker.scratch.survey(s, &mut round, p, from);
            end_ms = end_ms.max(slot_ms + round.end_ms());
            self.per_prefix.lock().expect("no worker panicked writing")[p.index()] = Some(info);
        }
        let mut end = self
            .end_ms
            .lock()
            .expect("no worker panicked holding the end");
        *end = end.max(end_ms);
    }
}

impl pool::Crew for Build<'_, '_> {
    type Local = Worker;

    fn hire(&self) -> Worker {
        let at = self.hired.fetch_add(1, Ordering::Relaxed) + 1;
        Worker::new(self.survey.prober, at, self.survey.vps.len())
    }

    fn work(&self, worker: &mut Worker) {
        self.survey(worker);
    }

    fn retire(&self, _: Worker) {}
}

/// [`IngressDb::build`]'s survey on a pool of `width` workers, into
/// `per_prefix`: one round, whose members are the prefixes' rounds —
/// prefix `i`'s opens `i` slots ([`SLOT_MS`]) into it — and which charges
/// the clock once as it closes, by its `N` slots or its latest member's
/// end, whichever is later. No probe of the build flushes time into the
/// simulator, so the world stands still under it. The workers claim whole
/// prefixes, each from its home range first, in one wave.
fn survey_on_pool(
    survey: Survey<'_, '_>,
    prefixes: &[PrefixId],
    width: usize,
    per_prefix: &mut [Option<PrefixInfo>],
) {
    let prober = survey.prober;
    let mut round = prober.round();
    let mut owner = Worker::new(prober, 0, survey.vps.len());
    let build = Build {
        survey,
        prefixes,
        start_ms: round.start_ms(),
        width,
        claims: pool::Claims::new(width),
        hired: AtomicUsize::new(0),
        per_prefix: Mutex::new(per_prefix),
        end_ms: Mutex::new(0.0),
    };
    build.claims.reset(prefixes.len());
    let end_ms = pool::scoped(build, width, |mut pool| {
        pool.wave(prefixes.len() > 1, |build| build.survey(&mut owner));
        *pool.crew().end_ms.lock().expect("the wave is over")
    });
    round.join(prefixes.len() as f64 * SLOT_MS);
    round.join(end_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::{FaultConfig, Sim, SimConfig};
    use revtr_probing::RetryPolicy;

    fn setup() -> (Sim, Vec<Addr>) {
        let sim = Sim::build(SimConfig::tiny(), 17);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        (sim, vps)
    }

    /// The pooled survey is the serial one at every width: on a fresh
    /// simulator per width, every `PrefixInfo` and the global order equal
    /// width 1's, and so do the clock and simulator-hour bits, the counters
    /// and the route computes — clean, and under transient loss with three
    /// attempts a probe (a fault whose draws read the packet and its send
    /// instant, never the order probes went out in). A one-VP survey too.
    #[test]
    fn the_survey_is_the_same_at_every_width() {
        for seed in [1, 7, 42] {
            for (loss, attempts) in [(0.0, 1), (0.15, 3)] {
                let mut cfg = SimConfig::tiny();
                cfg.faults = FaultConfig::lossy(loss);
                let retry = RetryPolicy::uniform(attempts);
                let survey = |width, n_vps: usize| {
                    let sim = Sim::build(cfg.clone(), seed);
                    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
                    let vps = &vps[..n_vps.min(vps.len())];
                    let prefixes: Vec<PrefixId> =
                        sim.topo().prefixes.iter().map(|p| p.id).collect();
                    let prober = Prober::new(&sim).with_retry_policy(retry);
                    assert!(prober.order_free());
                    let db = IngressDb::build_at(&prober, vps, &prefixes, Heuristics::FULL, width);
                    let infos: Vec<(PrefixId, PrefixInfo)> =
                        db.prefixes().map(|(p, info)| (p, info.clone())).collect();
                    let readings = (
                        prober.clock().now_ms().to_bits(),
                        sim.now_hours().to_bits(),
                        prober.counters().snapshot(),
                        sim.route_computes(),
                    );
                    (infos, db.global_plan().to_vec(), readings)
                };
                let serial = survey(1, usize::MAX);
                assert!(serial.0.iter().any(|(_, info)| info.ingresses.len() > 1));
                assert!(
                    loss == 0.0 || serial.2 .2.retries > 0,
                    "seed {seed}: no retry"
                );
                for width in [2, 3, 4] {
                    let pooled = survey(width, usize::MAX);
                    assert!(pooled == serial, "seed {seed}, loss {loss}, width {width}");
                }
                assert!(
                    survey(2, 1) == survey(1, 1),
                    "seed {seed}, loss {loss}, one VP"
                );
            }
        }
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
        // A table slot (the destinations inline), the in-range words, and
        // per VP at most: a place in the fallback ranking, nine candidates
        // nobody else saw and one ingress, its queue inline (a pick covers
        // at least one new VP). The era-2020 survey (146 VPs, 2 036
        // prefixes) reads 753 B a prefix against this worst case's 11.8 KB.
        let per_vp = size_of::<Addr>() * (1 + 9) + size_of::<IngressInfo>();
        let words = vps.len().div_ceil(64) * size_of::<u64>();
        let bound = (size_of::<Option<PrefixInfo>>() + words + per_vp * vps.len()) as u64;
        assert!(
            per_prefix > size_of::<Option<PrefixInfo>>() as u64 && per_prefix <= bound,
            "{per_prefix} B per surveyed prefix, bound {bound}"
        );
    }

    /// The build's schedule on a tree-less prober: each prefix surveyed in
    /// a part of one round, opened at its slot, which charges what the
    /// build charges. Returns each prefix's round end, from its slot's
    /// start.
    fn slotted(prober: &Prober<'_>, vps: &[Addr], prefixes: &[PrefixId]) -> Vec<f64> {
        let mut build = prober.round();
        let survey = Survey {
            prober,
            vps,
            h: Heuristics::FULL,
            replies: None,
        };
        let mut scratch = SurveyScratch::new(vps.len());
        let ends: Vec<f64> = (0..prefixes.len())
            .map(|i| {
                let slot_ms = i as f64 * SLOT_MS;
                let mut part = prober.round_part(build.start_ms() + slot_ms, None);
                scratch.survey(&survey, &mut part, prefixes[i], 0);
                build.join(slot_ms + part.end_ms());
                part.end_ms()
            })
            .collect();
        build.join(prefixes.len() as f64 * SLOT_MS);
        ends
    }

    /// The build charges its `N` slots, or its latest round's end if that
    /// is later. Without faults every round ends inside its slot — a scan
    /// ping, then an RR ping, each done within a timeout — so a tiny build
    /// charges exactly `N` slots. Under loss with three attempts a round
    /// that waits out lost attempts may overrun its slot; where the latest
    /// one ends past the build's last slot, as a lone prefix's does, the
    /// build charges that end.
    #[test]
    fn the_build_charges_its_slots_or_its_latest_round() {
        let slots = |ends: &[f64]| ends.len() as f64 * SLOT_MS;
        let latest = |ends: &[f64]| {
            (ends.iter().enumerate())
                .map(|(i, end)| i as f64 * SLOT_MS + end)
                .fold(0.0, f64::max)
        };
        let mut lossy = SimConfig::tiny();
        lossy.faults = FaultConfig::lossy(0.3);
        let mut overran = 0;
        for (cfg, attempts) in [(SimConfig::tiny(), 1), (lossy, 3)] {
            for seed in [1, 7, 42] {
                let (sim, twin) = (Sim::build(cfg.clone(), seed), Sim::build(cfg.clone(), seed));
                let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
                let all: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).collect();
                let retry = RetryPolicy::uniform(attempts);
                // The whole list, then each prefix alone, on both sides.
                let lists = std::iter::once(all.clone()).chain(all.iter().map(|&p| vec![p]));
                for (k, prefixes) in lists.enumerate() {
                    let prober = Prober::new(&sim).with_retry_policy(retry);
                    IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
                    let charged = prober.clock().now_ms();
                    let ends = slotted(
                        &Prober::new(&twin).with_retry_policy(retry),
                        &vps,
                        &prefixes,
                    );
                    let want = slots(&ends).max(latest(&ends));
                    assert_eq!(charged.to_bits(), want.to_bits(), "seed {seed}, list {k}");
                    if attempts == 1 {
                        assert!(ends.iter().all(|&end| end > 0.0 && end <= SLOT_MS));
                        assert_eq!(charged, slots(&ends), "seed {seed}, list {k}");
                    } else if ends.iter().any(|&end| end > SLOT_MS) && k > 0 {
                        assert_eq!(charged, ends[0], "seed {seed}, list {k}");
                        overran += 1;
                    }
                }
            }
        }
        assert!(overran > 0, "no lone prefix overran its slot");
    }

    /// A round's pings draw their faults at the instants they would go
    /// out, retries included: under loss and an ICMP rate limiter (which
    /// meters router addresses, not the end hosts a survey probes), with
    /// three attempts a ping, each ping's chain ends within three probe
    /// timeouts of its send instant — the scan's at the round's start, each
    /// RR ping at its destination's answer — so a prefix's round ends within
    /// three timeouts of its later answer.
    #[test]
    fn a_lossy_round_lasts_at_most_its_attempt_budget() {
        let mut cfg = SimConfig::tiny();
        cfg.faults = FaultConfig {
            icmp_rate_limit_pps: 100.0,
            ..FaultConfig::lossy(0.3)
        };
        let sim = Sim::build(cfg, 17);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prober = Prober::new(&sim)
            .with_cache_enabled(false)
            .with_retry_policy(RetryPolicy::uniform(3));
        let mut scratch = SurveyScratch::new(vps.len());
        let survey = Survey {
            prober: &prober,
            vps: &vps,
            h: Heuristics::FULL,
            replies: None,
        };
        let (mut rounds, mut retried) = (0, 0);
        for p in sim.topo().prefixes.iter().map(|p| p.id) {
            let t0 = prober.clock().now_ms();
            let mut round = prober.round();
            let scan = responsive_dests(&mut round, &survey, p);
            let wave = scan.1;
            if scan.0.is_empty() {
                continue;
            }
            scratch.survey_dests(&survey, &mut round, p, 0, scan);
            drop(round);
            let round_ms = prober.clock().now_ms() - t0;
            let answered = (wave.found[..wave.len].iter())
                .map(|&(_, at)| at)
                .fold(0.0, f64::max);
            let bound = answered + 3.0 * PROBE_TIMEOUT_MS;
            assert!(round_ms <= bound + 1e-6, "{p}: a {round_ms} ms round");
            rounds += 1;
            // Without a loss every scan ping ends within a timeout of the
            // round's start and every RR ping within one of its answer:
            // past that, some ping of the round waited out a lost attempt.
            retried += usize::from(round_ms > answered + PROBE_TIMEOUT_MS + 1e-6);
        }
        assert!(rounds > 10, "{rounds} rounds");
        assert!(retried > 0, "no ping waited out a lost attempt");
        assert!(prober.counters().snapshot().retries > 0);
    }

    /// A prefix's round charges the clock once, by its latest member: the
    /// wave's longest scan ping, or destination `k`'s slowest RR ping, sent
    /// when `k` answered. Both are recomputed here from the simulator's
    /// own answers, the scan by the reference's wave; so is the charge of
    /// a serial scan (candidates one after another until two answered),
    /// which finds the same hosts later.
    #[test]
    fn a_prefix_round_charges_scan_and_rr_once() {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 0.0;
        cfg.behavior.router_load_balancer = 0.0;
        let sim = Sim::build(cfg, 17);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let ms = |r: Option<f64>| r.unwrap_or(PROBE_TIMEOUT_MS);
        let rr_end = |found: &[(usize, f64)], cands: &[Addr]| {
            (found.iter())
                .map(|&(i, at)| {
                    let rr = vps
                        .iter()
                        .map(|&vp| ms(sim.rr_ping(vp, cands[i], 0).map(|r| r.rtt_ms)));
                    at + rr.fold(0.0, f64::max)
                })
                .fold(0.0, f64::max)
        };
        let (mut surveyed, mut sooner) = (0, 0);
        for p in sim.topo().prefixes.iter().map(|p| p.id) {
            let cands: Vec<Addr> = sim.host_addrs(p).take(DEST_SCAN_LIMIT).collect();
            let ping = |i: usize| sim.ping(vps[0], cands[i]).map(|r| r.rtt_ms);
            let (found, scan_end) = crate::reference::scan_wave(cands.len(), |i| {
                let r = ping(i);
                (r.is_some(), ms(r))
            });
            // The serial rule: candidates one after another until two
            // answered, each answer at the sum of the chains before it.
            let (mut serial, mut serial_ms) = (Vec::new(), 0.0);
            for i in 0..cands.len() {
                if serial.len() == DESTS_PER_PREFIX {
                    break;
                }
                serial_ms += ms(ping(i));
                if ping(i).is_some() {
                    serial.push((i, serial_ms));
                }
            }
            let found_cands: Vec<usize> = found.iter().map(|&(i, _)| i).collect();
            let serial_cands: Vec<usize> = serial.iter().map(|&(i, _)| i).collect();
            assert_eq!(found_cands, serial_cands, "{p}");
            let prober = Prober::new(&sim);
            let info = probe_prefix(&prober, &vps, p, Heuristics::FULL);
            let charged = prober.clock().now_ms();
            let want = scan_end.max(rr_end(&found, &cands));
            assert_eq!(
                charged.to_bits(),
                want.to_bits(),
                "{p}: {charged} vs {want}"
            );
            let serial_charged = serial_ms.max(rr_end(&serial, &cands));
            if p.0 == 0 {
                eprintln!("{p}: {charged:.0} ms a round; the serial scan's {serial_charged:.0}");
            }
            surveyed += usize::from(!info.dests.is_empty());
            sooner += usize::from(charged < serial_charged);
        }
        // Some rounds waited on a silent candidate before their second host
        // under the serial scan: the wave charged those prefixes less.
        assert!(surveyed > 10, "{surveyed} prefixes surveyed");
        assert!(sooner > 10, "{sooner} rounds ended sooner");
    }

    /// The wave against the serial rule (ping candidates in order, stop at
    /// the second answer) over every answered/unanswered pattern of the
    /// candidates, under RTT draws with ties and with chains that waited out
    /// lost attempts: every candidate pinged once, in candidate order, at
    /// the round's start, so the scan ends at its longest chain; the serial
    /// rule's two destinations, each found at its send instant (0) plus its
    /// chain — never later than the serial rule finds it.
    #[test]
    fn the_wave_finds_the_serial_scans_hosts() {
        const T: f64 = PROBE_TIMEOUT_MS;
        let draws: [fn(usize) -> f64; 4] = [
            |_| 40.0,
            |i| 5.0 + (i * 7 % 12) as f64 * 31.5,
            |i| [12.5, 300.0, 12.5, 80.0][i % 4],
            |i| (i % 3) as f64 * T + 20.0 + (i % 2) as f64 * 15.0,
        ];
        let mut sooner = 0;
        for pattern in 0u32..1 << DEST_SCAN_LIMIT {
            let answers = |i: usize| pattern >> i & 1 == 1;
            for rtt in draws {
                // An unanswered chain waits out one to three timeouts.
                let chain = |i: usize| {
                    if answers(i) {
                        rtt(i)
                    } else {
                        (1 + i % 3) as f64 * T
                    }
                };
                let (mut serial_found, mut serial_ms) = (Vec::new(), 0.0);
                for i in 0..DEST_SCAN_LIMIT {
                    serial_ms += chain(i);
                    if answers(i) {
                        serial_found.push((i, serial_ms));
                        if serial_found.len() == DESTS_PER_PREFIX {
                            break;
                        }
                    }
                }
                let mut sent = Vec::new();
                let w = wave(DEST_SCAN_LIMIT, |i| {
                    sent.push(i);
                    (answers(i), chain(i))
                });
                let all: Vec<usize> = (0..DEST_SCAN_LIMIT).collect();
                assert_eq!(sent, all, "pattern {pattern:#x}");
                let found = &w.found[..w.len];
                assert_eq!(found.len(), serial_found.len(), "pattern {pattern:#x}");
                for (&(i, at), &(serial_i, serial_at)) in found.iter().zip(&serial_found) {
                    assert_eq!(i, serial_i, "pattern {pattern:#x}");
                    assert_eq!(at, 0.0 + chain(i), "pattern {pattern:#x}, {i}");
                    assert!(at <= serial_at, "pattern {pattern:#x}, {i}: {at}");
                    sooner += usize::from(at < serial_at);
                }
            }
        }
        assert!(sooner > 0);
    }

    /// The set cover breaks a tie on cover by the candidates' tie-break,
    /// then by the higher address, as the reference's cover does. VP 0's
    /// path carries candidate `a`, VP 1's `b`, VP 2's both, VP 3's `c`:
    /// `a` and `b` tie on two VPs, and whichever loses ties `c` on one.
    /// Under the seeded hash either may win the first pick; under a
    /// constant tie-break `b`, then `c`, win on their addresses. Every
    /// plan equals the reference's, and the same whatever order the VPs
    /// were folded in.
    #[test]
    fn cover_ties_go_to_the_seeded_hash_then_the_address() {
        let vps: Vec<Addr> = (1..=4).map(|k| Addr(0x0c00_0000 + k)).collect();
        let (a, b, c) = (Addr(0x0b00_0010), Addr(0x0b00_0020), Addr(0x0b00_0030));
        let paths: [&[Addr]; 4] = [&[a], &[b], &[a, b], &[c]];
        let views: std::collections::BTreeMap<Addr, crate::reference::VpView> = (vps.iter())
            .zip(paths)
            .map(|(&vp, path)| {
                let candidates = path.iter().enumerate().map(|(d, &x)| (x, d)).collect();
                let view = crate::reference::VpView {
                    dest_dist: Some(2.0),
                    candidates,
                };
                (vp, view)
            })
            .collect();
        let dests: Dests = [Addr(0x0b10_8001)].into_iter().collect();
        let surveyed = |order: &[usize], tie: &dyn Fn(Addr) -> u64| {
            let mut scratch = SurveyScratch::new(vps.len());
            scratch.rows.clear();
            for &v in order {
                let view = PathView {
                    dest_dist: Some(2),
                    candidates: paths[v].iter().copied().collect(),
                };
                scratch.rows.fold(v, vps[v], &[view]);
            }
            scratch.finish_with(&vps, dests, tie)
        };
        let plan = |ingresses: &[IngressInfo]| -> Vec<(usize, Addr, Vec<Addr>)> {
            (ingresses.iter())
                .map(|i| (i.cover, i.addr, i.ranked_vps.to_vec()))
                .collect()
        };
        let mut first = Vec::new();
        for seed in 0..32u64 {
            let tie = |x: Addr| mix3(seed, u64::from(x.0), 7);
            let want = plan(&crate::reference::cover(&views, tie));
            for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
                let info = surveyed(&order, &tie);
                assert_eq!(plan(&info.ingresses), want, "seed {seed}, order {order:?}");
                assert_eq!(info.candidates(), &[a, b, c]);
                assert_eq!(info.fallback(), &vps[..]);
                assert!((0..4).all(|at| info.in_range_at(at)) && !info.in_range_at(4));
            }
            let hashed = if tie(a) > tie(b) { a } else { b };
            assert_eq!(want[0].1, hashed, "seed {seed}: the hash breaks the tie");
            first.push(want[0].1);
        }
        assert!(first.contains(&a) && first.contains(&b), "{first:?}");
        let flat = |_: Addr| 0;
        let want = plan(&crate::reference::cover(&views, flat));
        let got = plan(&surveyed(&[1, 3, 0, 2], &flat).ingresses);
        assert_eq!(got, want);
        assert_eq!(
            got,
            [
                (2, b, vec![vps[1], vps[2]]),
                (1, c, vec![vps[3]]),
                (1, a, vec![vps[0]])
            ]
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
