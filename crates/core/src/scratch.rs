//! The request plane's working memory: everything a reverse traceroute
//! needs while it runs and nothing it returns.
//!
//! A measurement runs to completion on one thread
//! ([`crate::RevtrSystem::drive`]), so its driver lends it one [`Scratch`]
//! and takes it back when the result is sealed. The path under assembly,
//! the spoofed ladder's cursors, one round's batch and the prober's reply
//! all live here and are overwritten in place by the next request; what a
//! request allocates is what outlives it — its result (one block, sealed
//! at `finish`), plus whatever it inserts into the measurement cache and
//! publishes to the stop sets. Its telemetry scope records into
//! buffers kept here too, handed back at `finish` less what the journal
//! retained.

use crate::result::RevtrHop;
use revtr_netsim::{Addr, RrSlots};
use revtr_probing::{BatchReply, ScopeBuffers};
use revtr_vpselect::PlanView;

/// One driver's reusable buffers. Plain data: a scratch a panicking
/// request left half-written is dropped, never reused.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The path under assembly, destination first, each hop with its
    /// evidence.
    pub(crate) hops: Vec<RevtrHop>,
    /// The telemetry scope's recorder and span buffers between requests
    /// (empty while a request has them, and with telemetry off).
    pub(crate) scope: ScopeBuffers,
    /// Hint: VPs the next ladder visits last in their queues — proven
    /// futile on the plan by earlier ladders. Only ever tested for
    /// membership.
    pub(crate) demoted: Vec<Addr>,
    /// The open spoofed ladder.
    pub(crate) ladder: Ladder,
    /// The round in flight: its slots, what the prober is asked, what it
    /// answered, and which answers were usable.
    pub(crate) batch: Vec<Slot>,
    pub(crate) pairs: Vec<(Addr, Addr)>,
    pub(crate) bases: Vec<u32>,
    pub(crate) reply: BatchReply,
    pub(crate) usable: Vec<bool>,
    /// VPs the open ladder *proved* futile at the router: a reply arrived
    /// (or the probe went genuinely unanswered — not a transient,
    /// fault-attributed loss) without a usable observation. Drained by
    /// the engine into `VpFutile` stop-set contributions.
    pub(crate) futile_vps: Vec<Addr>,
    /// Every slot each spoofed ladder sent, one list per ladder, until the
    /// test that reads it clears it.
    #[cfg(test)]
    pub(crate) sent: Vec<Vec<Slot>>,
}

/// Whether `addr` is already a hop of the path. A path is tens of hops at
/// most, so a scan beats hashing — and needs no set kept beside the hops.
pub(crate) fn on_path(path: &[RevtrHop], addr: Addr) -> bool {
    path.iter().any(|h| h.addr == Some(addr))
}

/// The hops of `hops` not already on the path, first occurrence order,
/// deduplicated (the RR steps' novelty filter). At most nine come in — one
/// reply's slots — so at most nine go out.
pub(crate) fn novel(path: &[RevtrHop], hops: &[Addr]) -> RrSlots {
    let mut out = RrSlots::new();
    for &h in hops {
        if !on_path(path, h) && !out.contains(&h) {
            out.push(h);
        }
    }
    out
}

/// Rank bit [`Ladder::open`] reads as "deprioritized by a hint": the VP is
/// visited after every VP without it, and counts as moved when that
/// changed its queue's order.
pub(crate) const DEMOTED: u8 = 2;

/// Where one VP queue's visiting order sits in [`Ladder::order`].
#[derive(Clone, Copy, Debug)]
struct Queue {
    start: usize,
    len: usize,
}

/// One probe of a spoofed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The VP to probe from.
    pub(crate) vp: Addr,
    /// Re-batches this VP has already been held for (the scenario attempt
    /// base of the probe).
    pub(crate) stalls: u32,
    /// The ingress a usable reply must have traversed.
    pub(crate) expected_ingress: Option<Addr>,
}

/// The spoofed ladder as a view: the VP queues stay where the ingress
/// survey put them ([`PlanView`]) and the ladder keeps a visiting order
/// per queue — a permutation of positions into the queue's own VP slice —
/// and one cursor into the plan's try order ([`PlanView::try_order`]):
/// depth-major across the queues, each queue read in its visiting order.
/// Deprioritizing hinted VPs is a stable reorder of a permutation, and a
/// remembered winner runs *solo* ahead of the queues.
///
/// The round rule: the first round from the queues carries the closest VP
/// of each queue, up to the cap (§4.3's favourites, which usually win);
/// every later round fills to the cap with the next VPs in try order.
/// A VP held for a re-batch (transient loss) goes out again at the head of
/// the next round, on top of the cap, with its own re-batch count.
#[derive(Debug, Default)]
pub(crate) struct Ladder {
    /// Every queue's visiting order, concatenated.
    order: Vec<u32>,
    queues: Vec<Queue>,
    /// The try-order cursor: the next VP is at `depth` in queue `next` —
    /// or none is left once `depth` reaches `deepest`, the longest queue.
    depth: usize,
    next: usize,
    deepest: usize,
    /// Whether the next round from the queues is the first one.
    opening: bool,
    /// VPs held for the next round, in the order they went out.
    held: Vec<Slot>,
    /// Whether `held` is a remembered winner running alone ahead of the
    /// queues.
    solo: bool,
}

impl Ladder {
    /// Start a ladder over `plan`. Each queue is visited in ascending
    /// `rank(vp)`, plan order within a rank — so VPs
    /// ranked [`DEMOTED`] or above are deprioritized, never dropped: a
    /// winning ladder skips the known-dead prefix, while an exhausting
    /// ladder still reaches every VP (pruning measurably costs coverage —
    /// a "futile" sibling VP is occasionally the only one in range). A
    /// `winner` found in some queue opens the ladder solo, under that
    /// queue's ingress expectation, with the full queues as the fallback.
    ///
    /// Returns how many demoted VPs actually moved behind a live one.
    pub(crate) fn open(
        &mut self,
        plan: PlanView<'_>,
        rank: impl Fn(Addr) -> u8,
        winner: Option<Addr>,
    ) -> u64 {
        self.order.clear();
        self.queues.clear();
        self.held.clear();
        let mut moved = 0;
        for (_, vps) in plan.queues() {
            let start = self.order.len();
            let len = vps.len();
            self.order
                .extend(0..u32::try_from(len).expect("a VP queue is far shorter than 2^32"));
            // Stable, and in place for anything queue-sized.
            self.order[start..].sort_by_key(|&i| rank(vps[i as usize]));
            let dead = vps.iter().filter(|&&vp| rank(vp) >= DEMOTED).count();
            if dead > 0 && dead < len {
                moved += dead as u64;
            }
            self.queues.push(Queue { start, len });
        }
        self.deepest = self.queues.iter().map(|q| q.len).max().unwrap_or(0);
        (self.depth, self.next) = (0, 0);
        if self.deepest > 0 && self.queues[0].len == 0 {
            self.advance();
        }
        let solo = winner.and_then(|vp| {
            let (expected_ingress, _) = plan.queues().find(|(_, vps)| vps.contains(&vp))?;
            Some(Slot {
                vp,
                stalls: 0,
                expected_ingress,
            })
        });
        self.held.extend(solo);
        self.solo = solo.is_some();
        self.opening = !self.solo;
        moved
    }

    /// Move the cursor to the next VP in try order, or past the last.
    fn advance(&mut self) {
        loop {
            self.next += 1;
            if self.next == self.queues.len() {
                (self.depth, self.next) = (self.depth + 1, 0);
            }
            if self.depth >= self.deepest || self.depth < self.queues[self.next].len {
                return;
            }
        }
    }

    /// True when no VP is left to try.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.held.is_empty() && self.depth >= self.deepest
    }

    /// Compose the next batch into `out`: the solo winner alone; else the
    /// held VPs, then up to `cap` VPs in try order — of the closest VPs
    /// only in the first round. `plan` must be the view the ladder was
    /// opened over.
    pub(crate) fn compose(&mut self, plan: PlanView<'_>, cap: usize, out: &mut Vec<Slot>) {
        out.clear();
        out.append(&mut self.held);
        if self.solo {
            return;
        }
        let last_depth = if self.opening { 0 } else { usize::MAX };
        self.opening = false;
        for _ in 0..cap {
            if self.depth >= self.deepest || self.depth > last_depth {
                break;
            }
            let q = self.queues[self.next];
            let (expected_ingress, vps) = plan.queue(self.next);
            out.push(Slot {
                vp: vps[self.order[q.start + self.depth] as usize],
                stalls: 0,
                expected_ingress,
            });
            self.advance();
        }
    }

    /// Settle a batch that concluded nothing: `hold(i, slot)` says whether
    /// slot `i`'s VP goes out once more in the next round (the caller's
    /// stall budget) or is done. A solo winner that is done falls back —
    /// once — to the full queues.
    pub(crate) fn settle(&mut self, batch: &[Slot], mut hold: impl FnMut(usize, &Slot) -> bool) {
        for (i, slot) in batch.iter().enumerate() {
            if hold(i, slot) {
                self.held.push(Slot {
                    stalls: slot.stalls + 1,
                    ..*slot
                });
            }
        }
        self.solo &= !self.held.is_empty();
    }
}

/// What this module replaced, kept as the oracle of the differential test
/// below: the `HashSet`-clone novelty filter.
#[cfg(test)]
pub(crate) mod reference {
    use revtr_netsim::Addr;
    use std::collections::HashSet;

    /// The hops of `hops` not already on the path, first occurrence order,
    /// deduplicated.
    pub(crate) fn novel(path_set: &HashSet<Addr>, hops: &[Addr]) -> Vec<Addr> {
        let mut out = Vec::new();
        let mut seen = path_set.clone();
        for &h in hops {
            if seen.insert(h) {
                out.push(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BATCH_SIZE;
    use crate::result::Evidence;
    use proptest::prelude::*;
    use revtr_netsim::hash::mix3;
    use revtr_vpselect::IngressInfo;
    use std::collections::HashSet;

    fn a(n: u32) -> Addr {
        Addr(0x0B00_0000 + n)
    }

    fn path_of(addrs: &[Option<Addr>]) -> Vec<RevtrHop> {
        addrs
            .iter()
            .map(|&addr| RevtrHop::new(addr, Evidence::Destination))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The scan over the path's own hops keeps exactly what the
        /// cloned-`HashSet` filter kept, in the same order.
        #[test]
        fn novel_matches_the_hashset_clone_reference(
            path in proptest::collection::vec(0u32..40, 0..65),
            stars in 0u64..u64::MAX,
            hops in proptest::collection::vec(0u32..48, 0..10),
        ) {
            // Small address range: slot lists repeat themselves and land
            // on the path often. Starred hops (`addr: None`, as an atlas
            // suffix can hold) are on no one's path.
            let path: Vec<Option<Addr>> = path
                .iter()
                .enumerate()
                .map(|(i, &n)| (stars >> (i % 64) & 1 == 0 || n % 3 != 0).then(|| a(n)))
                .collect();
            let hops: Vec<Addr> = hops.into_iter().map(a).collect();
            let set: HashSet<Addr> = path.iter().flatten().copied().collect();
            let got = novel(&path_of(&path), &hops);
            prop_assert_eq!(&got[..], &reference::novel(&set, &hops)[..]);
            for &h in &hops {
                prop_assert_eq!(on_path(&path_of(&path), h), set.contains(&h));
            }
        }
    }

    /// A plan from raw draws: ingress queues of distinct VPs from a pool
    /// of 12 (so queues overlap, as real ones do, and some are empty), or
    /// — with no queue drawn — a ranking.
    fn plan_of(queues: Vec<Vec<u32>>, ranking: Vec<u32>) -> (Vec<IngressInfo>, Vec<Addr>) {
        let dedup = |q: Vec<u32>| {
            let mut seen = HashSet::new();
            q.into_iter()
                .filter(|&n| seen.insert(n))
                .map(a)
                .collect::<Vec<Addr>>()
        };
        let ingresses = queues
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                let ranked_vps = dedup(q);
                IngressInfo {
                    addr: a(100 + i as u32),
                    cover: ranked_vps.len(),
                    ranked_vps,
                }
            })
            .collect();
        (ingresses, dedup(ranking))
    }

    fn view_of((ingresses, ranking): &(Vec<IngressInfo>, Vec<Addr>)) -> PlanView<'_> {
        if ingresses.is_empty() {
            PlanView::Ranking(ranking)
        } else {
            PlanView::Ingresses(ingresses)
        }
    }

    /// The try order of the plan with each queue's `futile` VPs moved,
    /// stably, behind its live ones.
    fn try_order_after_demotion(
        (ingresses, ranking): &(Vec<IngressInfo>, Vec<Addr>),
        futile: &HashSet<Addr>,
    ) -> Vec<(Option<Addr>, Addr)> {
        let live_first = |vps: &[Addr]| {
            let (live, dead): (Vec<Addr>, Vec<Addr>) =
                vps.iter().partition(|vp| !futile.contains(vp));
            [live, dead].concat()
        };
        let ingresses: Vec<IngressInfo> = (ingresses.iter())
            .map(|i| IngressInfo {
                ranked_vps: live_first(&i.ranked_vps),
                ..i.clone()
            })
            .collect();
        let ranking = live_first(ranking);
        view_of(&(ingresses, ranking)).try_order().collect()
    }

    /// Walk a ladder to exhaustion under one pseudo-random pattern of
    /// transient losses and per-VP stall budgets, checking every round
    /// against the round rule; `Err` names the first breach, `Ok` the
    /// rounds walked. `open` lets a test swap in a broken ladder.
    ///
    /// (i) Held VPs aside, the VPs go out in try order after demotion,
    /// behind the solo winner under its queue's expectation. (ii) The
    /// first round from the queues carries min(cap, non-empty queues) new
    /// VPs, a solo round one, and every later round min(cap, VPs left) —
    /// plus, at its head, the VPs the round before held, each with one
    /// stall more. (iii) So every VP goes out once unless held, and no
    /// more often than its stall budget allows.
    fn walk_checked(
        draw: &(Vec<IngressInfo>, Vec<Addr>),
        futile: &HashSet<Addr>,
        winner: Option<Addr>,
        cap: usize,
        salt: u64,
        open: impl Fn(&mut Ladder, PlanView<'_>) -> u64,
    ) -> Result<usize, String> {
        let plan = view_of(draw);
        let mut ladder = Ladder::default();
        let moved = open(&mut ladder, plan);
        let want_moved: u64 = (plan.queues())
            .map(|(_, vps)| {
                let dead = vps.iter().filter(|vp| futile.contains(vp)).count();
                if dead > 0 && dead < vps.len() {
                    dead as u64
                } else {
                    0
                }
            })
            .sum();
        if moved != want_moved {
            return Err(format!("moved {moved}, want {want_moved}"));
        }
        let solo = winner.and_then(|w| {
            let (ingress, _) = plan.queues().find(|(_, vps)| vps.contains(&w))?;
            Some((ingress, w))
        });
        let want: Vec<(Option<Addr>, Addr)> = (solo.into_iter())
            .chain(try_order_after_demotion(draw, futile))
            .collect();
        let non_empty = plan.queues().filter(|(_, vps)| !vps.is_empty()).count();
        // Transient on ~half the probes; budgets of 1, 2 or 6 re-batches.
        let transient =
            |round: usize, vp: Addr| mix3(salt, round as u64, vp.0 as u64).is_multiple_of(2);
        let budget = |vp: Addr| [1, 2, 6][(mix3(salt, 77, vp.0 as u64) % 3) as usize];
        let (mut issued, mut held, mut batch) = (Vec::new(), Vec::<Slot>::new(), Vec::new());
        let mut solo_live = solo.is_some();
        let mut round = 0;
        while !ladder.is_exhausted() {
            if round > 1_000 {
                return Err("the ladder never ends".into());
            }
            ladder.compose(plan, cap, &mut batch);
            let again: Vec<Slot> = (held.iter())
                .map(|s| Slot {
                    stalls: s.stalls + 1,
                    ..*s
                })
                .collect();
            if batch.get(..again.len()) != Some(&again[..]) {
                return Err(format!("round {round}: held {again:?}, sent {batch:?}"));
            }
            let fresh = &batch[again.len()..];
            let size = match (round, solo_live) {
                (0, true) => 1,
                (_, true) => 0,
                (0, false) => cap.min(non_empty),
                _ => cap.min(want.len() - issued.len()),
            };
            if fresh.len() != size || fresh.iter().any(|s| s.stalls != 0) {
                return Err(format!("round {round}: {size} new VPs due, sent {batch:?}"));
            }
            if batch.is_empty() {
                return Err(format!("round {round} is empty"));
            }
            issued.extend(fresh.iter().map(|s| (s.expected_ingress, s.vp)));
            if want.get(..issued.len()) != Some(&issued[..]) {
                return Err(format!(
                    "round {round}: sent {issued:?}, try order {want:?}"
                ));
            }
            if let Some(s) = batch.iter().find(|s| s.stalls > budget(s.vp)) {
                return Err(format!("round {round}: {s:?} held past its budget"));
            }
            held.clear();
            ladder.settle(&batch, |_, s| {
                let keep = transient(round, s.vp) && s.stalls < budget(s.vp);
                if keep {
                    held.push(*s);
                }
                keep
            });
            solo_live &= !held.is_empty();
            round += 1;
        }
        if issued != want || !held.is_empty() {
            return Err(format!("exhausted after {issued:?}, try order {want:?}"));
        }
        Ok(round)
    }

    fn rank_of(futile: &HashSet<Addr>) -> impl Fn(Addr) -> u8 + '_ {
        |vp| {
            if futile.contains(&vp) {
                DEMOTED
            } else {
                0
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// The ladder keeps the round rule in every slot of every round —
        /// under random futile sets, winner hints (in a queue, in none,
        /// absent), overlapping and empty queues, batch caps 1–3,
        /// transient-stall patterns and the solo fallback.
        #[test]
        fn ladder_keeps_the_round_rule(
            queues in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..5),
            ranking in proptest::collection::vec(0u32..12, 0..6),
            futile in proptest::collection::vec(0u32..14, 0..8),
            winner in 0u32..20,
            cap in 1usize..4,
            salt in 0u64..u64::MAX,
        ) {
            let plan = plan_of(queues, ranking);
            let futile: HashSet<Addr> = futile.into_iter().map(a).collect();
            // VPs 12 and 13 are in no queue; 14 and up mean "no hint".
            let winner = (winner < 14).then(|| a(winner));
            let walked = walk_checked(&plan, &futile, winner, cap, salt, |l, p| {
                l.open(p, rank_of(&futile), winner)
            });
            prop_assert!(walked.is_ok(), "{}", walked.unwrap_err());
        }
    }

    /// The rule check has teeth: a ladder that demotes the dead VPs but
    /// reverses their relative order is caught.
    #[test]
    fn reversing_the_dead_tail_fails_the_round_rule() {
        let plan = (
            vec![IngressInfo {
                addr: a(100),
                cover: 4,
                ranked_vps: vec![a(1), a(2), a(3), a(4)],
            }],
            Vec::new(),
        );
        let futile: HashSet<Addr> = [a(1), a(3)].into_iter().collect();
        // Live [2, 4] then dead [1, 3]: the stable order passes…
        let stable = walk_checked(&plan, &futile, None, 3, 9, |l, p| {
            l.open(p, rank_of(&futile), None)
        });
        assert_eq!(stable.map(|rounds| rounds >= 2), Ok(true));
        // …and dead [3, 1] does not.
        let reversed = walk_checked(&plan, &futile, None, 3, 9, |l, p| {
            let moved = l.open(p, rank_of(&futile), None);
            let tail = l.order.len() - futile.len();
            l.order[tail..].reverse();
            moved
        });
        assert!(reversed.is_err(), "an unstable dead tail went unnoticed");
    }

    /// The round rule on one plan, by hand: two ingress queues, a batch
    /// cap of three. The first round carries each queue's closest VP; the
    /// second fills to three in try order; a VP held in it goes out again
    /// at the head of the third, beside the last VP.
    #[test]
    fn later_rounds_fill_to_the_cap_in_try_order() {
        let ingresses = [
            IngressInfo {
                addr: a(100),
                cover: 4,
                ranked_vps: vec![a(1), a(2), a(3), a(4)],
            },
            IngressInfo {
                addr: a(101),
                cover: 2,
                ranked_vps: vec![a(5), a(6)],
            },
        ];
        let plan = PlanView::Ingresses(&ingresses);
        let mut l = Ladder::default();
        assert_eq!(l.open(plan, |_| 0, None), 0);
        let mut batch = Vec::new();
        let mut rounds = Vec::new();
        while !l.is_exhausted() {
            l.compose(plan, BATCH_SIZE, &mut batch);
            rounds.push(batch.iter().map(|s| (s.vp, s.stalls)).collect::<Vec<_>>());
            l.settle(&batch, |_, s| s.vp == a(6) && s.stalls == 0);
        }
        let vp = |n, stalls| (a(n), stalls);
        assert_eq!(
            rounds,
            [
                vec![vp(1, 0), vp(5, 0)],
                vec![vp(2, 0), vp(6, 0), vp(3, 0)],
                vec![vp(6, 1), vp(4, 0)],
            ]
        );
    }

    /// Ranks compose: demotion is applied over a set-cover style
    /// "in range first" order exactly as two successive stable partitions.
    #[test]
    fn ranks_order_as_successive_stable_partitions() {
        let vps: Vec<Addr> = (0..8).map(a).collect();
        let far = |vp: Addr| vp.0 % 2 == 1;
        let dead = |vp: Addr| vp.0.is_multiple_of(3);
        let mut l = Ladder::default();
        let plan = PlanView::Ranking(&vps);
        let moved = l.open(
            plan,
            |vp| u8::from(far(vp)) + if dead(vp) { DEMOTED } else { 0 },
            None,
        );
        let (near, farther): (Vec<Addr>, Vec<Addr>) = vps.iter().partition(|&&v| !far(v));
        let (live, dying): (Vec<Addr>, Vec<Addr>) = [near, farther]
            .concat()
            .into_iter()
            .partition(|&v| !dead(v));
        assert_eq!(moved, dying.len() as u64);
        let mut walked = Vec::new();
        let mut batch = Vec::new();
        while !l.is_exhausted() {
            l.compose(plan, 1, &mut batch);
            walked.push(batch[0].vp);
            l.settle(&batch, |_, _| false);
        }
        assert_eq!(walked, [live, dying].concat());
    }
}
