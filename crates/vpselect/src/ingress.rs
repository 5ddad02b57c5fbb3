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
//! keeps as many pings in flight as it still needs hosts, which sends
//! exactly the pings a serial scan sends, and each destination's RR pings
//! go out as soon as it answers.
//!
//! The survey sees what a deployment sees: it reads a prefix's range, its
//! hitlist and the set-cover tie seed through the [`Prober`], and
//! [`IngressDb::build`] lends its RR pings a
//! [`revtr_probing::SurveyTrees`] through [`Prober::survey_round`].
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
use revtr_netsim::{Addr, PrefixId};
use revtr_probing::{Prober, Round, SurveyTrees};
use std::mem::size_of;

/// Maximum host addresses ping-scanned per prefix when hunting for
/// responsive destinations.
pub const DEST_SCAN_LIMIT: usize = 12;

/// Responsive destinations surveyed per prefix (§4.3: two suffice).
const DESTS_PER_PREFIX: usize = 2;

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
            PlanView::Ingresses(ing) => (Some(ing[i].addr), &ing[i].ranked_vps),
            PlanView::Lent(ing) => (None, &ing[i].ranked_vps),
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
    /// ([`revtr_probing::Round::rr_ping`]): they are VP→scan-destination
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
        let mut trees = SurveyTrees::new(prober, vps, DESTS_PER_PREFIX);
        let mut scratch = SurveyScratch::new(vps.len());
        let mut per_prefix = Vec::new();
        per_prefix.resize_with(
            prefixes.iter().map(|p| p.index() + 1).max().unwrap_or(0),
            || None,
        );
        for &p in prefixes {
            per_prefix[p.index()] = Some(scratch.survey(prober, Some(&mut trees), vps, p, h));
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
        siblings: &[PrefixId],
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
            .chain(siblings.iter().map(|&p| lend(self.plan_view(p))))
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
/// [`PrefixInfo`]. Like [`IngressDb::build`], past the measurement cache;
/// unlike it, every walk derived hop by hop — one prefix has no tree to
/// share with the next call, and a fresh one per call would cost more
/// than the call's whole working memory.
pub fn probe_prefix(prober: &Prober<'_>, vps: &[Addr], p: PrefixId, h: Heuristics) -> PrefixInfo {
    SurveyScratch::new(vps.len()).survey(prober, None, vps, p, h)
}

/// Step 1 of the survey: up to two responsive destinations of `p`, in
/// candidate order, pinged from the first VP (any source works:
/// responsiveness is a destination property) into the prefix's round, a
/// [`scan_window`] at a time; with the window, whose `found[k]` is when
/// destination `k` answered.
fn responsive_dests(
    round: &mut Round<'_, '_>,
    prober: &Prober<'_>,
    vps: &[Addr],
    p: PrefixId,
) -> (Vec<Addr>, Window) {
    let mut cands = [Addr(0); DEST_SCAN_LIMIT];
    let n = (cands.iter_mut().zip(prober.host_addrs(p)))
        .map(|(c, a)| *c = a)
        .count();
    // No VP, no pinger: nothing to scan with.
    let n = if vps.is_empty() { 0 } else { n };
    let window = scan_window(n, |i, at_ms| {
        let (reply, chain_ms) = round.ping(at_ms, vps[0], cands[i]);
        (reply.is_some(), chain_ms)
    });
    let dests = window.found[..window.len].iter().map(|&(i, _)| cands[i]);
    (dests.collect(), window)
}

/// The scan's schedule over candidates `0..n`, in ms from the start of
/// the prefix's round: the candidates that answered (at most two, in
/// candidate order, each with the instant its reply came in), and when the
/// last ping ended.
#[derive(Clone, Copy)]
struct Window {
    found: [(usize, f64); DESTS_PER_PREFIX],
    len: usize,
    end_ms: f64,
}

/// Ping candidates `0..n` in order until two answer, keeping
/// `DESTS_PER_PREFIX − found` pings in flight. `send(i, at_ms)` sends
/// candidate `i` at `at_ms` and returns whether it answered and its
/// chain's length. In-flight pings resolve in `(end, candidate)` order and
/// the next candidate goes out at the resolving instant.
///
/// The serial scan sends candidate `j` iff fewer than two of `0..j`
/// answered. The window sends `j` only while `r + k ≤ 1` (`r` answers in,
/// `k` pings out), so at most one of `0..j` can have answered: `j` goes out
/// serially too. And if at most one of `0..j` answered, the window sends
/// `j` at the latest once all of `0..j` are in (`k = 0`, `r ≤ 1`). So it
/// sends the serial scan's pings, in candidate order, and finds the same
/// two hosts — only sooner.
fn scan_window(n: usize, mut send: impl FnMut(usize, f64) -> (bool, f64)) -> Window {
    let mut w = Window {
        found: [(0, 0.0); DESTS_PER_PREFIX],
        len: 0,
        end_ms: 0.0,
    };
    // `(end, candidate, answered)` of the pings in flight.
    let mut flight = [(0.0, 0, false); DESTS_PER_PREFIX];
    let (mut out, mut next) = (0, 0);
    loop {
        // Pings resolve in end order, so the last one resolved is both
        // "now" and, once the window empties, its end.
        let now = w.end_ms;
        while w.len + out < DESTS_PER_PREFIX && next < n {
            let (answered, chain_ms) = send(next, now);
            flight[out] = (now + chain_ms, next, answered);
            out += 1;
            next += 1;
        }
        let Some(first) = (0..out).min_by(|&a, &b| {
            let (x, y) = (flight[a], flight[b]);
            x.0.total_cmp(&y.0).then(x.1.cmp(&y.1))
        }) else {
            break;
        };
        let (end, cand, answered) = flight[first];
        out -= 1;
        flight.swap(first, out);
        w.end_ms = end;
        if answered {
            w.found[w.len] = (cand, end);
            w.len += 1;
        }
    }
    w.found[..w.len].sort_unstable_by_key(|&(cand, _)| cand);
    w
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
}

impl SurveyScratch {
    fn new(n_vps: usize) -> SurveyScratch {
        SurveyScratch {
            // Era-2020 prefixes average under three shared candidates a VP;
            // one in seven has more than four and doubles the run once.
            run: Vec::with_capacity(4 * n_vps),
            covered: Vec::with_capacity(n_vps),
            near: Vec::with_capacity(n_vps),
            picked: Vec::with_capacity(16),
        }
    }

    /// §4.3 for one prefix, as one [`Round`] (lending `trees`, when the
    /// caller surveys enough prefixes to share them): the scan's pings,
    /// then one RR ping per (VP, destination), VP-major, each sent when its
    /// destination's scan ping answered. Probes go out in a fixed order and
    /// every choice among VPs is made on their addresses, never their
    /// positions, so a permuted VP list gives the same answer.
    fn survey(
        &mut self,
        prober: &Prober<'_>,
        trees: Option<&mut SurveyTrees>,
        vps: &[Addr],
        p: PrefixId,
        h: Heuristics,
    ) -> PrefixInfo {
        let mut round = match trees {
            Some(trees) => prober.survey_round(trees),
            None => prober.round(),
        };
        let scan = responsive_dests(&mut round, prober, vps, p);
        if scan.0.is_empty() {
            return PrefixInfo::default();
        }
        self.survey_dests(&mut round, prober, vps, p, h, scan)
    }

    /// Steps 2–5 of [`SurveyScratch::survey`], on the destinations the scan
    /// found (at least one) and its window, into the prefix's round.
    fn survey_dests(
        &mut self,
        round: &mut Round<'_, '_>,
        prober: &Prober<'_>,
        vps: &[Addr],
        p: PrefixId,
        h: Heuristics,
        (dests, window): (Vec<Addr>, Window),
    ) -> PrefixInfo {
        let prefix = prober.prefix(p);

        // 2–3. RR-ping the destinations from every VP, each as soon as its
        // scan ping answered, and fold each VP's merged view into the
        // tables.
        self.run.clear();
        self.near.clear();
        let mut in_range = vec![0u64; vps.len().div_ceil(64)].into_boxed_slice();
        let mut closest: Option<(f64, Addr)> = None;
        for (vp_at, &vp) in vps.iter().enumerate() {
            let mut views = [PathView::default(); DESTS_PER_PREFIX];
            let mut answered = 0;
            for (&d, &(_, at_ms)) in dests.iter().zip(&window.found) {
                if let Some(r) = round.rr_ping(at_ms, vp, d) {
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
                    in_range[vp_at / 64] |= 1 << (vp_at % 64);
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
                        vp_at: vp_at as u32,
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
        let tie_seed = prober.seed() ^ 0x5e7c;
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
    use revtr_netsim::{FaultConfig, Sim, SimConfig};
    use revtr_probing::prober::PROBE_TIMEOUT_MS;
    use revtr_probing::RetryPolicy;

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

    /// A round's pings draw their faults at the instants they would go
    /// out, retries included: under loss and an ICMP rate limiter (which
    /// meters router addresses, not the end hosts a survey probes), with
    /// three attempts a ping, each RR ping ends within three probe timeouts
    /// of its destination's answer — so a prefix's round, which holds the
    /// scan too, ends by the later of the scan's end and those bounds.
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
        let (mut rounds, mut retried) = (0, 0);
        for p in sim.topo().prefixes.iter().map(|p| p.id) {
            let t0 = prober.clock().now_ms();
            let mut round = prober.round();
            let scan = responsive_dests(&mut round, &prober, &vps, p);
            let window = scan.1;
            if scan.0.is_empty() {
                continue;
            }
            scratch.survey_dests(&mut round, &prober, &vps, p, Heuristics::FULL, scan);
            drop(round);
            let round_ms = prober.clock().now_ms() - t0;
            let answered = (window.found[..window.len].iter())
                .map(|&(_, at)| at)
                .fold(0.0, f64::max);
            let bound = window.end_ms.max(answered + 3.0 * PROBE_TIMEOUT_MS);
            assert!(round_ms <= bound + 1e-6, "{p}: a {round_ms} ms round");
            rounds += 1;
            // Past the scan and a timeout after the last answer: an RR
            // ping waited out a lost attempt.
            retried += usize::from(round_ms > window.end_ms.max(answered + PROBE_TIMEOUT_MS));
        }
        assert!(rounds > 10, "{rounds} rounds");
        assert!(retried > 0, "no RR ping waited out a lost attempt");
        assert!(prober.counters().snapshot().retries > 0);
    }

    /// A prefix's round charges the clock once, by its latest member: the
    /// scan window's last ping, or destination `k`'s slowest RR ping, sent
    /// when `k` answered. Both are recomputed here from the simulator's
    /// own answers, the scan by the reference's two-lane schedule.
    #[test]
    fn a_prefix_round_charges_scan_and_rr_once() {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 0.0;
        cfg.behavior.router_load_balancer = 0.0;
        let sim = Sim::build(cfg, 17);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let ms = |r: Option<f64>| r.unwrap_or(PROBE_TIMEOUT_MS);
        let (mut surveyed, mut overlapped) = (0, 0);
        for p in sim.topo().prefixes.iter().map(|p| p.id) {
            let cands: Vec<Addr> = sim.host_addrs(p).take(DEST_SCAN_LIMIT).collect();
            let mut serial_ms = 0.0;
            let (found, scan_end) = crate::reference::scan_lanes(cands.len(), |i, _| {
                let r = sim.ping(vps[0], cands[i]).map(|r| r.rtt_ms);
                serial_ms += ms(r);
                (r.is_some(), ms(r))
            });
            let rr_end = (found.iter())
                .map(|&(i, at)| {
                    let rr = vps
                        .iter()
                        .map(|&vp| ms(sim.rr_ping(vp, cands[i], 0).map(|r| r.rtt_ms)));
                    at + rr.fold(0.0, f64::max)
                })
                .fold(0.0, f64::max);
            let prober = Prober::new(&sim);
            let info = probe_prefix(&prober, &vps, p, Heuristics::FULL);
            let charged = prober.clock().now_ms();
            let want = scan_end.max(rr_end);
            assert_eq!(
                charged.to_bits(),
                want.to_bits(),
                "{p}: {charged} vs {want}"
            );
            surveyed += usize::from(!info.dests.is_empty());
            overlapped += usize::from(scan_end < serial_ms);
        }
        // Some scans overlapped a ping with an unanswered one: a serial
        // scan would have charged those prefixes more.
        assert!(surveyed > 10, "{surveyed} prefixes surveyed");
        assert!(overlapped > 10, "{overlapped} scans overlapped");
    }

    /// The scan window against the serial rule (ping candidates in order,
    /// stop at the second answer) over every answered/unanswered pattern
    /// of the candidates, under RTT draws with ties and with chains that
    /// waited out lost attempts: the same pings in the same order, the same
    /// two destinations, each answer at its send instant plus its chain,
    /// and an end no later than the serial scan's.
    #[test]
    fn the_scan_window_sends_the_serial_scans_pings() {
        const T: f64 = PROBE_TIMEOUT_MS;
        let draws: [fn(usize) -> f64; 4] = [
            |_| 40.0,
            |i| 5.0 + (i * 7 % 12) as f64 * 31.5,
            |i| [12.5, 300.0, 12.5, 80.0][i % 4],
            |i| (i % 3) as f64 * T + 20.0 + (i % 2) as f64 * 15.0,
        ];
        let mut overlapped = 0;
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
                let (mut serial, mut serial_found, mut serial_ms) = (Vec::new(), Vec::new(), 0.0);
                for i in 0..DEST_SCAN_LIMIT {
                    serial.push(i);
                    serial_ms += chain(i);
                    if answers(i) {
                        serial_found.push(i);
                        if serial_found.len() == DESTS_PER_PREFIX {
                            break;
                        }
                    }
                }
                let mut sent = Vec::new();
                let w = scan_window(DEST_SCAN_LIMIT, |i, at_ms| {
                    sent.push((i, at_ms));
                    (answers(i), chain(i))
                });
                let order: Vec<usize> = sent.iter().map(|&(i, _)| i).collect();
                assert_eq!(order, serial, "pattern {pattern:#x}");
                let found = &w.found[..w.len];
                let found_cands: Vec<usize> = found.iter().map(|&(i, _)| i).collect();
                assert_eq!(found_cands, serial_found, "pattern {pattern:#x}");
                for &(i, at) in found {
                    assert_eq!(at, sent[i].1 + chain(i), "pattern {pattern:#x}, {i}");
                }
                assert!(w.end_ms <= serial_ms, "pattern {pattern:#x}: {}", w.end_ms);
                overlapped += usize::from(w.end_ms < serial_ms);
            }
        }
        assert!(overlapped > 0);
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
