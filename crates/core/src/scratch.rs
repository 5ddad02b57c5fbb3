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
    /// futile on the plan by earlier ladders, or quarantined. Only ever
    /// tested for membership.
    pub(crate) demoted: Vec<Addr>,
    /// Hint: the campaign's spoof-quarantine set as of the open ladder
    /// (empty unless hardened). Quarantined VPs get a single stall
    /// re-batch. Only ever tested for membership.
    pub(crate) quarantined: Vec<Addr>,
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
    /// One entry per *resolved* spoofed pair of the open ladder:
    /// `(vp, landed)`. A pair resolves alive the round any reply lands,
    /// and dead only when it exhausts its stall cycle with every loss
    /// fault-attributed; genuine non-answers record nothing (they blame
    /// the destination). Recorded only under `EngineConfig::harden`;
    /// drained by the engine into the stop-set spoof-quarantine window.
    pub(crate) spoof_outcomes: Vec<(Addr, bool)>,
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

/// One VP queue of the ladder: where its visiting order sits in
/// [`Ladder::order`], how far along it is, and how many consecutive
/// re-batches its current VP has held its position.
#[derive(Clone, Copy, Debug)]
struct Queue {
    start: usize,
    len: usize,
    cursor: usize,
    stalls: u32,
}

/// A remembered winner VP running alone ahead of the full ladder.
#[derive(Clone, Copy, Debug)]
struct Solo {
    queue: usize,
    vp: Addr,
    stalls: u32,
}

/// One probe of a spoofed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The plan queue this slot advances.
    queue: usize,
    /// The VP to probe from.
    pub(crate) vp: Addr,
    /// Re-batches this VP has already held its position for (the
    /// scenario attempt base of the probe).
    pub(crate) stalls: u32,
    /// The ingress a usable reply must have traversed.
    pub(crate) expected_ingress: Option<Addr>,
}

/// The spoofed ladder as a view: the VP queues stay where the ingress
/// survey put them ([`PlanView`]) and the ladder keeps, per queue, a
/// cursor, a stall count and a visiting order — a permutation of positions
/// into the queue's own VP slice. Deprioritizing hinted VPs is a stable
/// reorder of that permutation, and a remembered winner runs *solo* ahead
/// of queues that are simply not started yet.
#[derive(Debug, Default)]
pub(crate) struct Ladder {
    /// Every queue's visiting order, concatenated.
    order: Vec<u32>,
    queues: Vec<Queue>,
    /// Queues with VPs left to try, in plan order.
    active: Vec<usize>,
    solo: Option<Solo>,
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
        self.active.clear();
        let mut moved = 0;
        for (qi, (_, vps)) in plan.queues().enumerate() {
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
            if len > 0 {
                self.active.push(qi);
            }
            self.queues.push(Queue {
                start,
                len,
                cursor: 0,
                stalls: 0,
            });
        }
        self.solo = winner.and_then(|vp| {
            let queue = plan.queues().position(|(_, vps)| vps.contains(&vp))?;
            Some(Solo {
                queue,
                vp,
                stalls: 0,
            })
        });
        moved
    }

    /// True when no VP is left to try.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.solo.is_none() && self.active.is_empty()
    }

    /// Compose the next batch into `out`: the solo winner alone, else the
    /// current VP of up to `cap` distinct queues, in plan order. `plan`
    /// must be the view the ladder was opened over.
    pub(crate) fn compose(&self, plan: PlanView<'_>, cap: usize, out: &mut Vec<Slot>) {
        out.clear();
        if let Some(s) = self.solo {
            out.push(Slot {
                queue: s.queue,
                vp: s.vp,
                stalls: s.stalls,
                expected_ingress: plan.queue(s.queue).0,
            });
            return;
        }
        for &qi in self.active.iter().take(cap) {
            let q = self.queues[qi];
            let (expected_ingress, vps) = plan.queue(qi);
            out.push(Slot {
                queue: qi,
                vp: vps[self.order[q.start + q.cursor] as usize],
                stalls: q.stalls,
                expected_ingress,
            });
        }
    }

    /// Settle a batch that concluded nothing: `hold(i, slot)` says whether
    /// slot `i`'s queue keeps its current VP for one more re-batch (the
    /// caller's stall budget) or moves on to its next one. A solo winner
    /// that moves on falls back — once — to the full queues. Returns
    /// whether any VP is left to try.
    pub(crate) fn settle(
        &mut self,
        batch: &[Slot],
        mut hold: impl FnMut(usize, &Slot) -> bool,
    ) -> bool {
        if let Some(s) = &mut self.solo {
            if hold(0, &batch[0]) {
                s.stalls += 1;
                return true;
            }
            self.solo = None;
            return !self.active.is_empty();
        }
        for (i, slot) in batch.iter().enumerate() {
            let q = &mut self.queues[slot.queue];
            if hold(i, slot) {
                q.stalls += 1;
            } else {
                q.cursor += 1;
                q.stalls = 0;
            }
        }
        let queues = &self.queues;
        self.active.retain(|&qi| queues[qi].cursor < queues[qi].len);
        !self.active.is_empty()
    }
}

/// What this module replaced, kept as the oracles of the differential
/// tests below: the `HashSet`-clone novelty filter and the ladder over
/// owned, cloned and partitioned VP queues.
#[cfg(test)]
pub(crate) mod reference {
    use revtr_netsim::Addr;
    use revtr_vpselect::IngressQueue;
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

    /// The ladder state `rr_begin` built and `rr_round` walked.
    pub(crate) struct Ladder {
        pub(crate) queues: Vec<IngressQueue>,
        pub(crate) cursors: Vec<usize>,
        pub(crate) stalls: Vec<u32>,
        pub(crate) active: Vec<usize>,
        pub(crate) staged: Option<Vec<IngressQueue>>,
    }

    impl Ladder {
        /// `rr_begin`'s queue set-up over a cloned plan; also returns the
        /// count it reported to `note_vp_skips`.
        pub(crate) fn open(
            mut full: Vec<IngressQueue>,
            futile: &HashSet<Addr>,
            winner: Option<Addr>,
        ) -> (Ladder, u64) {
            let mut moved = 0u64;
            if !futile.is_empty() {
                for q in &mut full {
                    let (live, dead): (Vec<Addr>, Vec<Addr>) =
                        q.vps.iter().copied().partition(|v| !futile.contains(v));
                    if !dead.is_empty() && !live.is_empty() {
                        moved += dead.len() as u64;
                        q.vps = live;
                        q.vps.extend(dead);
                    }
                }
            }
            let solo = winner.and_then(|w| {
                full.iter()
                    .find(|q| q.vps.contains(&w))
                    .map(|q| IngressQueue {
                        expected_ingress: q.expected_ingress,
                        vps: vec![w],
                    })
            });
            let (queues, staged) = match solo {
                Some(q) => (vec![q], Some(full)),
                None => (full, None),
            };
            let active = (0..queues.len())
                .filter(|&qi| !queues[qi].vps.is_empty())
                .collect();
            let ladder = Ladder {
                cursors: vec![0; queues.len()],
                stalls: vec![0; queues.len()],
                active,
                queues,
                staged,
            };
            (ladder, moved)
        }

        /// `rr_round`'s batch: `(queue, vp)` per slot.
        pub(crate) fn compose(&self, cap: usize) -> Vec<(usize, Addr)> {
            self.active
                .iter()
                .take(cap)
                .map(|&qi| (qi, self.queues[qi].vps[self.cursors[qi]]))
                .collect()
        }

        /// `rr_round`'s tail after an empty-handed batch; returns whether
        /// the step goes on.
        pub(crate) fn settle(
            &mut self,
            batch: &[(usize, Addr)],
            mut hold: impl FnMut(usize, Addr, u32) -> bool,
        ) -> bool {
            for (slot, &(qi, vp)) in batch.iter().enumerate() {
                if hold(slot, vp, self.stalls[qi]) {
                    self.stalls[qi] += 1;
                } else {
                    self.cursors[qi] += 1;
                    self.stalls[qi] = 0;
                }
            }
            let (cursors, queues) = (&self.cursors, &self.queues);
            self.active.retain(|&qi| cursors[qi] < queues[qi].vps.len());
            if self.active.is_empty() {
                if let Some(full) = self.staged.take() {
                    self.cursors = vec![0; full.len()];
                    self.stalls = vec![0; full.len()];
                    self.active = (0..full.len())
                        .filter(|&qi| !full[qi].vps.is_empty())
                        .collect();
                    self.queues = full;
                    if !self.active.is_empty() {
                        return true;
                    }
                }
                return false;
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Walk both ladders to exhaustion under one pseudo-random pattern of
    /// transient losses and per-VP stall budgets; `Err` names the first
    /// place they part. `open` lets a test swap in a broken ladder.
    fn walk_both(
        (ingresses, ranking): &(Vec<IngressInfo>, Vec<Addr>),
        futile: &HashSet<Addr>,
        winner: Option<Addr>,
        cap: usize,
        salt: u64,
        open: impl Fn(&mut Ladder, PlanView<'_>) -> u64,
    ) -> Result<usize, String> {
        let plan = if ingresses.is_empty() {
            PlanView::Ranking(ranking)
        } else {
            PlanView::Ingresses(ingresses)
        };
        let (mut old, old_moved) = reference::Ladder::open(plan.to_queues(), futile, winner);
        let mut new = Ladder::default();
        let new_moved = open(&mut new, plan);
        if old_moved != new_moved {
            return Err(format!("moved: {old_moved} vs {new_moved}"));
        }
        if old.active.is_empty() != new.is_exhausted() {
            return Err("one ladder opens exhausted, the other does not".into());
        }
        // Transient on ~half the probes; budgets of 1, 2 or 6 re-batches,
        // the three the engine uses.
        let transient = |round: usize, vp: Addr| mix3(salt, round as u64, vp.0 as u64) % 2 == 0;
        let budget = |vp: Addr| [1, 2, 6][(mix3(salt, 77, vp.0 as u64) % 3) as usize];
        let mut batch = Vec::new();
        let mut round = 0;
        while !old.active.is_empty() {
            let old_batch = old.compose(cap);
            new.compose(plan, cap, &mut batch);
            let issued = |vp, stalls, expected| (vp, stalls, expected);
            let old_slots: Vec<_> = old_batch
                .iter()
                .map(|&(qi, vp)| issued(vp, old.stalls[qi], old.queues[qi].expected_ingress))
                .collect();
            let new_slots: Vec<_> = batch
                .iter()
                .map(|s| issued(s.vp, s.stalls, s.expected_ingress))
                .collect();
            if old_slots != new_slots {
                return Err(format!("round {round}: {old_slots:?} vs {new_slots:?}"));
            }
            let old_more = old.settle(&old_batch, |_, vp, stalls| {
                transient(round, vp) && stalls < budget(vp)
            });
            let new_more = new.settle(&batch, |_, s| {
                transient(round, s.vp) && s.stalls < budget(s.vp)
            });
            if old_more != new_more || new_more == new.is_exhausted() {
                return Err(format!("round {round}: go-on {old_more} vs {new_more}"));
            }
            round += 1;
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

        /// The view issues the VP the cloned-and-partitioned queues
        /// issued, with the same stall count and ingress expectation, in
        /// every slot of every round — under random futile sets, winner
        /// hints (in a queue, in none, absent), empty queues, batch caps
        /// 1–3, transient-stall patterns and the staged fallback.
        #[test]
        fn ladder_view_matches_the_owning_reference(
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
            let walked = walk_both(&plan, &futile, winner, cap, salt, |l, p| {
                l.open(p, rank_of(&futile), winner)
            });
            prop_assert!(walked.is_ok(), "{}", walked.unwrap_err());
        }
    }

    /// The differential test has teeth: a ladder that demotes the dead VPs
    /// but reverses their relative order is caught.
    #[test]
    fn reversing_the_dead_tail_fails_the_differential() {
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
        let stable = walk_both(&plan, &futile, None, 3, 9, |l, p| {
            l.open(p, rank_of(&futile), None)
        });
        assert_eq!(stable.map(|rounds| rounds >= 4), Ok(true));
        // …and dead [3, 1] does not.
        let reversed = walk_both(&plan, &futile, None, 3, 9, |l, p| {
            let moved = l.open(p, rank_of(&futile), None);
            let tail = l.order.len() - futile.len();
            l.order[tail..].reverse();
            moved
        });
        assert!(reversed.is_err(), "an unstable dead tail went unnoticed");
    }

    /// Ranks compose: demotion is applied over a set-cover style
    /// "in range first" order exactly as two successive stable partitions.
    #[test]
    fn ranks_order_as_successive_stable_partitions() {
        let vps: Vec<Addr> = (0..8).map(a).collect();
        let far = |vp: Addr| vp.0 % 2 == 1;
        let dead = |vp: Addr| vp.0 % 3 == 0;
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
