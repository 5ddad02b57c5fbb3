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
    /// The open spoofed ladder.
    pub(crate) ladder: Ladder,
    /// The revtr 1.0 plan of the open ladder's prefix
    /// ([`revtr_vpselect::IngressDb::revtr1_plan`]), rewritten by each
    /// set-cover ladder in place.
    pub(crate) revtr1_plan: Vec<Addr>,
    /// The round in flight: its slots, what the prober is asked and what
    /// it answered.
    pub(crate) batch: Vec<Slot>,
    pub(crate) pairs: Vec<(Addr, Addr)>,
    pub(crate) bases: Vec<u32>,
    pub(crate) reply: BatchReply,
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
/// survey put them ([`PlanView`]) and the ladder keeps one cursor into
/// the plan's try order ([`PlanView::try_order`]): depth-major across the
/// queues, each queue read closest VP first. A remembered winner runs
/// *solo* ahead of the queues.
///
/// The round rule: the first round from the queues carries the closest VP
/// of each queue, up to the cap (§4.3's favourites, which usually win);
/// every later round fills to the cap with the next VPs in try order.
/// A VP held for a re-batch (transient loss) goes out again at the head of
/// the next round, on top of the cap, with its own re-batch count.
#[derive(Debug, Default)]
pub(crate) struct Ladder {
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
    /// Start a ladder over `plan`. A `winner` found in some queue opens
    /// the ladder solo, under that queue's ingress expectation, with the
    /// full queues as the fallback.
    pub(crate) fn open(&mut self, plan: PlanView<'_>, winner: Option<Addr>) {
        self.held.clear();
        self.deepest = plan.queues().map(|(_, vps)| vps.len()).max().unwrap_or(0);
        (self.depth, self.next) = (0, 0);
        if self.deepest > 0 && plan.queue(0).1.is_empty() {
            self.advance(plan);
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
    }

    /// Move the cursor to the next VP in try order, or past the last.
    fn advance(&mut self, plan: PlanView<'_>) {
        loop {
            self.next += 1;
            if self.next == plan.len() {
                (self.depth, self.next) = (self.depth + 1, 0);
            }
            if self.depth >= self.deepest || self.depth < plan.queue(self.next).1.len() {
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
            let (expected_ingress, vps) = plan.queue(self.next);
            out.push(Slot {
                vp: vps[self.depth],
                stalls: 0,
                expected_ingress,
            });
            self.advance(plan);
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

    /// Walk a ladder to exhaustion under one pseudo-random pattern of
    /// transient losses and per-VP stall budgets, checking every round
    /// against the round rule; `Err` names the first breach, `Ok` the
    /// rounds walked.
    ///
    /// (i) Held VPs aside, the VPs go out in the plan's try order, behind
    /// the solo winner under its queue's expectation. (ii) The
    /// first round from the queues carries min(cap, non-empty queues) new
    /// VPs, a solo round one, and every later round min(cap, VPs left) —
    /// plus, at its head, the VPs the round before held, each with one
    /// stall more. (iii) So every VP goes out once unless held, and no
    /// more often than its stall budget allows.
    fn walk_checked(
        draw: &(Vec<IngressInfo>, Vec<Addr>),
        winner: Option<Addr>,
        cap: usize,
        salt: u64,
    ) -> Result<usize, String> {
        let plan = view_of(draw);
        let mut ladder = Ladder::default();
        ladder.open(plan, winner);
        let solo = winner.and_then(|w| {
            let (ingress, _) = plan.queues().find(|(_, vps)| vps.contains(&w))?;
            Some((ingress, w))
        });
        let want: Vec<(Option<Addr>, Addr)> = (solo.into_iter()).chain(plan.try_order()).collect();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// The ladder keeps the round rule in every slot of every round —
        /// under winner hints (in a queue, in none, absent), overlapping
        /// and empty queues, batch caps 1–3, transient-stall patterns and
        /// the solo fallback.
        #[test]
        fn ladder_keeps_the_round_rule(
            queues in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..5),
            ranking in proptest::collection::vec(0u32..12, 0..6),
            winner in 0u32..20,
            cap in 1usize..4,
            salt in 0u64..u64::MAX,
        ) {
            let plan = plan_of(queues, ranking);
            // VPs 12 and 13 are in no queue; 14 and up mean "no hint".
            let winner = (winner < 14).then(|| a(winner));
            let walked = walk_checked(&plan, winner, cap, salt);
            prop_assert!(walked.is_ok(), "{}", walked.unwrap_err());
        }
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
        l.open(plan, None);
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
}
