//! Campaign-wide Doubletree-style stop sets: the cross-request probe
//! economy layer (`EngineConfig::use_stop_sets`).
//!
//! Doubletree (Donnet et al., "Efficient Route Tracing from a Single
//! Source") observes that redundant probing collapses when monitors share
//! two sets: a *backward stop set* of (monitor, interface) pairs whose
//! path tail is already known, and a *forward discovery set* of
//! interfaces already explored toward destinations. This module is the
//! revtr analogue:
//!
//! * the **backward stop set** maps `(revtr source, frontier router)` to
//!   reverse-hop evidence some earlier request already measured at that
//!   router — the full RR observation (hops + send-time
//!   [`RrProvenance`]), so reuse replays against the audit oracle exactly
//!   like a measurement-cache hit. Alongside the evidence it keeps four
//!   cheaper hints: the spoofed-ladder *winner VP* per ingress plan and
//!   per-router *ladder futility* (both source-free — slot survival on
//!   the VP→router leg does not depend on the spoofed-for source), a
//!   *direct-RR futility* marker per `(source, router)`, and the *forward
//!   distance* a source last measured into a /24 (FlashRoute's neighbour
//!   prediction). Together they let a later request open the ladder at
//!   its proven winner, skip exhausted ladders, skip the predictably
//!   unanswered direct probe, and start the symmetry step's TTL probing
//!   next to its target instead of at TTL 1;
//! * the **forward discovery set** maps `(atlas source, hop)` to the RR
//!   observation the atlas builder already made for that hop, so
//!   rebuilding or refreshing atlases re-measures each interface once per
//!   campaign instead of once per trace containing it.
//!
//! # Determinism contract
//!
//! Consults read an immutable *published* view. Campaign tasks never
//! write the published view directly: they buffer [`Contribution`]s
//! stamped with `(vtime, request id, seq)`, and the engine merges the
//! buffer at deterministic barriers ([`StopSet::merge_pending`]) by
//! sorting on that stamp and applying first-wins per key (forward
//! distances, which track what was measured *last*, apply last-wins in the
//! same order). The stamp is a
//! pure function of the task schedule (virtual time, not wall time), so
//! the published view after every barrier — and therefore every consult
//! result — is bitwise identical whatever the worker count or OS
//! interleaving. The metamorphic suite pins this across dispatch workers
//! {1, 4, 16}.
//!
//! Atlas builds run outside the campaign loop (registration happens
//! before requests, refresh on a serial request path), so the forward set
//! is applied immediately rather than buffered.
//!
//! # Accounting contract
//!
//! Stop-set consults never touch the [`MeasurementCache`] and never bump
//! its [`CacheStats`]: economy wins are attributed to the dedicated
//! hit/miss counters here ([`StopSetSnapshot`]), reconciled against cache
//! stats in `eval::throughput`'s counter-reconciliation test.
//!
//! [`MeasurementCache`]: crate::cache::MeasurementCache
//! [`CacheStats`]: crate::cache::CacheStats

use crate::prober::RrProvenance;
use revtr_netsim::{Addr, RrReply, RrSlots, StripedCounters};
use revtr_telemetry::{WordMap, WordSet};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

/// One reusable RR observation: the reverse hops it revealed plus the
/// send-time provenance the audit layer replays it under. Held inline
/// (one reply has at most nine slots), so storing, publishing and
/// consulting one never touches the heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoredRr {
    /// Reverse hops the observation revealed (post-destination stamps).
    pub hops: RrSlots,
    /// Send-time provenance of the original probe (original nonce and
    /// churn epochs — reuse must replay the send, not the reuse instant).
    pub provenance: RrProvenance,
}

/// Backward stop-set evidence at one `(source, router)` key. Direct and
/// spoofed observations are kept in separate slots so a consult can
/// mirror the engine's own preference order (direct RR first, spoofed
/// ladder second) and stay result-compatible with a from-scratch rr_step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackwardEntry {
    /// Evidence from a non-spoofed RR ping (source itself was the sender).
    pub direct: Option<StoredRr>,
    /// Evidence from a spoofed RR ping (a VP spoofed as the source).
    pub spoofed: Option<StoredRr>,
}

impl BackwardEntry {
    /// The preferred reusable observation: direct evidence first (it is
    /// what a fresh rr_step would find first), spoofed otherwise. Returns
    /// the observation and whether it came from the spoofed slot.
    pub fn best(&self) -> Option<(&StoredRr, bool)> {
        self.direct
            .as_ref()
            .map(|s| (s, false))
            .or_else(|| self.spoofed.as_ref().map(|s| (s, true)))
    }
}

/// What one task learned, to be folded into the published view at the
/// next merge barrier.
#[derive(Clone, Debug)]
pub enum Note {
    /// Reverse-hop evidence measured at `(src, cur)`; `spoofed` selects
    /// the [`BackwardEntry`] slot.
    Backward {
        /// The revtr source the evidence is valid for.
        src: Addr,
        /// The frontier router the observation was made at.
        cur: Addr,
        /// True if a VP spoofed as `src` (spoofed slot), false for the
        /// source's own direct RR ping.
        spoofed: bool,
        /// The observation.
        stored: StoredRr,
    },
    /// The VP that won the spoofed ladder on an ingress plan — later
    /// requests at any router on the same plan try it first. Keyed on
    /// the plan alone, not `(src, plan)` or the exact router: whether a
    /// VP's record-route slots survive into a plan's network is a
    /// property of the VP→plan leg, so a winner found while serving one
    /// source at one sibling router is the best opening bid everywhere
    /// on the plan (and it is only a hint — the full ladder stays
    /// staged as the fallback, so a wrong guess costs one probe, never
    /// coverage).
    Winner {
        /// Ingress-plan key (see `core::system`'s plan keying: equal
        /// keys imply identical VP queues).
        plan: u64,
        /// The winning vantage point.
        vp: Addr,
    },
    /// Direct (non-spoofed) RR from `src` revealed nothing at this exact
    /// router — later requests whose path reaches the same router skip
    /// the direct probe. Futility is keyed per router, not per ingress
    /// plan: a sibling router on the same plan may well be within direct
    /// RR range even when this one is not, and plan-level generalization
    /// measurably costs coverage.
    DirectFutile {
        /// The revtr source.
        src: Addr,
        /// The exact frontier router the direct probe failed at.
        cur: Addr,
        /// The router left the probe genuinely unanswered, so the step
        /// skipped its spoofed ladder too ([`DirectVerdict::Silent`]).
        silent: bool,
    },
    /// The full spoofed ladder at this exact router was exhausted
    /// without a single *usable* reply (no VP's record-route slots
    /// survived past the router, or it never answered) — later requests
    /// reaching the same router skip the ladder and fall through to the
    /// next technique. Keyed on the router alone: slot survival on the
    /// VP→router leg and the router's RR responsiveness do not depend
    /// on which source the probe was spoofed for. A ladder that got
    /// usable replies which merely revealed nothing *novel for that
    /// request's path* must NOT be marked futile — the same replies can
    /// be evidence for a different request.
    SpoofFutile {
        /// The exact frontier router the ladder was exhausted at.
        cur: Addr,
    },
    /// `src` measured `addr` this many TTLs away (a last-link
    /// measurement's [`crate::LastLink::dist`]). Published per `(src,
    /// /24)` with the `/16` behind it — addresses numbered together sit
    /// together, so the next target in the block starts its TTL probing
    /// there — and folded into the source's running median for blocks
    /// never seen. The latest measurement wins: routes move. Like every
    /// hint it is a guess a deployment already paid for; a wrong one costs
    /// packets, never a hop.
    Distance {
        /// The measuring source.
        src: Addr,
        /// The target whose distance was measured.
        addr: Addr,
        /// TTLs from `src` to `addr`.
        dist: u8,
    },
}

/// What the stop sets hold about the direct RR ping from a source at one
/// router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectVerdict {
    /// The ping revealed nothing: answered without novel hops, or lost.
    Futile,
    /// The router left the ping unanswered. A spoofed RR ping goes to the
    /// same responder and its reply comes back to the same source, so the
    /// step that learned this skipped its spoofed ladder as well — and so
    /// does a later request at the same `(source, router)`. Keyed on the
    /// source, unlike [`Note::SpoofFutile`]: it is the source's verdict.
    Silent,
}

/// A buffered stop-set update, stamped for deterministic merging.
#[derive(Clone, Debug)]
pub struct Contribution {
    /// Virtual time of the contributing task when it learned the fact.
    pub vtime: f64,
    /// Contributing request id (ties on vtime).
    pub req: u64,
    /// Per-request sequence number (ties on request).
    pub seq: u64,
    /// The fact itself.
    pub note: Note,
}

/// Point-in-time stop-set effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StopSetSnapshot {
    /// Backward consults answered with reusable evidence.
    pub backward_hits: u64,
    /// Backward consults with nothing reusable.
    pub backward_misses: u64,
    /// Forward consults answered from the discovery set.
    pub forward_hits: u64,
    /// Forward consults that had to probe.
    pub forward_misses: u64,
    /// Direct RR probes skipped on a futility hint.
    pub direct_skips: u64,
    /// Whole spoofed ladders skipped on a futility hint.
    pub spoof_skips: u64,
    /// Always 0: the per-VP futility hint it counted is gone. Kept only
    /// because the benchmark package reads it; a change to that package
    /// drops the field.
    pub vp_skips: u64,
    /// Ladders started at a remembered winner VP.
    pub winner_hits: u64,
    /// Distance consults answered from the target's /24 or /16.
    pub distance_hits: u64,
    /// Distance consults left to the source's median (or to nothing).
    pub distance_misses: u64,
}

impl StopSetSnapshot {
    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(&self, earlier: &StopSetSnapshot) -> StopSetSnapshot {
        StopSetSnapshot {
            backward_hits: self.backward_hits - earlier.backward_hits,
            backward_misses: self.backward_misses - earlier.backward_misses,
            forward_hits: self.forward_hits - earlier.forward_hits,
            forward_misses: self.forward_misses - earlier.forward_misses,
            direct_skips: self.direct_skips - earlier.direct_skips,
            spoof_skips: self.spoof_skips - earlier.spoof_skips,
            vp_skips: self.vp_skips - earlier.vp_skips,
            winner_hits: self.winner_hits - earlier.winner_hits,
            distance_hits: self.distance_hits - earlier.distance_hits,
            distance_misses: self.distance_misses - earlier.distance_misses,
        }
    }

    /// Total consults of the backward set.
    pub fn backward_lookups(&self) -> u64 {
        self.backward_hits + self.backward_misses
    }

    /// Total consults of the forward discovery set.
    pub fn forward_lookups(&self) -> u64 {
        self.forward_hits + self.forward_misses
    }

    /// Hits of any kind (the "economy wins" the throughput report sums).
    pub fn total_hits(&self) -> u64 {
        self.backward_hits
            + self.forward_hits
            + self.direct_skips
            + self.spoof_skips
            + self.winner_hits
            + self.distance_hits
    }
}

/// Logical byte footprint of the published stop-set hint tables, split by
/// hint-table group (see [`StopSet::approx_bytes`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StopSetBytes {
    /// Backward stop set: `(source, router)` → RR evidence.
    pub backward: u64,
    /// Forward discovery set: `(atlas source, hop)` → RR observation,
    /// and the forward-distance hints.
    pub forward: u64,
    /// Ladder hints: per-plan winner VPs.
    pub ladder: u64,
    /// Futility hints: direct-RR and whole-ladder futility.
    pub futility: u64,
}

impl StopSetBytes {
    /// Sum over all four groups.
    pub fn total(&self) -> u64 {
        self.backward + self.forward + self.ladder + self.futility
    }
}

/// Ledger footprint of one backward entry apart from its hops, which
/// [`StopSet::approx_bytes`] prices at four bytes each: the two
/// `(24-byte hop vector header, 40-byte provenance)` slots the byte
/// budgets were recorded with. The hops now sit inline in the slots; the
/// ledger keeps its unit so readings stay comparable across that change.
const BACKWARD_ENTRY_BYTES: usize = 128;

/// The published view. Its tables are read only by key or by order-free
/// sums.
#[derive(Debug, Default)]
struct Published {
    backward: WordMap<(Addr, Addr), BackwardEntry>,
    winners: WordMap<u64, Addr>,
    /// `(source, router)` → whether the router was silent to the source
    /// ([`DirectVerdict::Silent`]).
    direct_futile: WordMap<(Addr, Addr), bool>,
    spoof_futile: WordSet<Addr>,
    forward: WordMap<(Addr, Addr), Option<RrReply>>,
    /// `(source, block)` → TTLs last measured into the block; /24 and /16
    /// blocks share the table ([`block_key`]).
    distances: WordMap<(Addr, u32), u8>,
    /// Source → every distance it measured, for their median.
    measured_distances: WordMap<Addr, DistanceTally>,
}

/// The distances one source measured, counted per TTL (the last bucket
/// takes anything longer), and their running median.
#[derive(Clone, Copy, Debug)]
struct DistanceTally {
    counts: [u32; 64],
    total: u32,
    median: u8,
}

impl DistanceTally {
    const EMPTY: DistanceTally = DistanceTally {
        counts: [0; 64],
        total: 0,
        median: 0,
    };

    fn record(&mut self, dist: u8) {
        self.counts[usize::from(dist).min(self.counts.len() - 1)] += 1;
        self.total += 1;
        let mut upto = 0;
        let median = self.counts.iter().position(|&n| {
            upto += n;
            2 * upto >= self.total
        });
        self.median = median.expect("the counts sum to the total") as u8;
    }
}

/// The key of the `/len` block holding `addr` (`len` 24 or 16): its
/// network bits under a marker bit, so the two lengths never collide.
fn block_key(addr: Addr, len: u32) -> u32 {
    (1 << len) | (addr.0 >> (32 - len))
}

// Indices of [`StopSet::stats`], one per [`StopSetSnapshot`] field.
const BACKWARD_HITS: usize = 0;
const BACKWARD_MISSES: usize = 1;
const FORWARD_HITS: usize = 2;
const FORWARD_MISSES: usize = 3;
const DIRECT_SKIPS: usize = 4;
const SPOOF_SKIPS: usize = 5;
const WINNER_HITS: usize = 6;
const DISTANCE_HITS: usize = 7;
const DISTANCE_MISSES: usize = 8;
const N_STATS: usize = 9;

/// The campaign-wide stop-set layer. One instance per
/// `core::system::RevtrSystem`; cheap to share via `Arc`.
#[derive(Debug, Default)]
pub struct StopSet {
    published: RwLock<Published>,
    pending: Mutex<Vec<Contribution>>,
    /// [`StopSetSnapshot`]'s counts, striped by consulting thread and
    /// indexed by the constants above.
    stats: StripedCounters<N_STATS>,
}

impl StopSet {
    /// Fresh, empty stop sets.
    pub fn new() -> StopSet {
        StopSet::default()
    }

    // ---- consults (published view only) -----------------------------------

    /// Open a consult: one read lock over the published view, under which
    /// a stitch step asks everything it wants to know. Drop it before the
    /// step probes — a merge barrier waits for every open consult.
    pub fn consult(&self) -> Consult<'_> {
        Consult {
            set: self,
            view: self.published.read().expect("stopset lock poisoned"),
        }
    }

    /// Forward-discovery consult: the RR observation already made for
    /// `(source, hop)`, if any (`Some(None)` = known unanswered). Counts a
    /// hit or miss.
    pub fn forward(&self, source: Addr, hop: Addr) -> Option<Option<RrReply>> {
        let g = self.published.read().expect("stopset lock poisoned");
        match g.forward.get(&(source, hop)) {
            Some(r) => {
                self.stats.add(FORWARD_HITS, 1);
                Some(r.clone())
            }
            None => {
                self.stats.add(FORWARD_MISSES, 1);
                None
            }
        }
    }

    // ---- updates ----------------------------------------------------------

    /// Buffer a task contribution; it becomes visible at the next
    /// [`StopSet::merge_pending`] barrier.
    pub fn contribute(&self, c: Contribution) {
        self.pending.lock().expect("stopset lock poisoned").push(c);
    }

    /// Merge every buffered contribution into the published view, ordered
    /// by `(vtime, request id, seq)` with first-wins per key. Called by
    /// the engine at wave barriers (and after every serial step), never
    /// concurrently with task execution.
    pub fn merge_pending(&self) {
        // Drained in place: the buffer keeps its capacity, so a serial
        // caller merging after every request does not regrow it each time.
        let mut pending = self.pending.lock().expect("stopset lock poisoned");
        if pending.is_empty() {
            return;
        }
        pending.sort_by(|a, b| {
            a.vtime
                .total_cmp(&b.vtime)
                .then(a.req.cmp(&b.req))
                .then(a.seq.cmp(&b.seq))
        });
        let mut g = self.published.write().expect("stopset lock poisoned");
        for c in pending.drain(..) {
            match c.note {
                Note::Backward {
                    src,
                    cur,
                    spoofed,
                    stored,
                } => {
                    let e = g.backward.entry((src, cur)).or_default();
                    let slot = if spoofed {
                        &mut e.spoofed
                    } else {
                        &mut e.direct
                    };
                    if slot.is_none() {
                        *slot = Some(stored);
                    }
                }
                Note::Winner { plan, vp } => {
                    g.winners.entry(plan).or_insert(vp);
                }
                // Silence is a fact about the responder: once seen, it
                // stays, whatever order the notes merge in.
                Note::DirectFutile { src, cur, silent } => {
                    *g.direct_futile.entry((src, cur)).or_default() |= silent;
                }
                Note::SpoofFutile { cur } => {
                    g.spoof_futile.insert(cur);
                }
                Note::Distance { src, addr, dist } => {
                    g.distances.insert((src, block_key(addr, 24)), dist);
                    g.distances.insert((src, block_key(addr, 16)), dist);
                    g.measured_distances
                        .entry(src)
                        .or_insert(DistanceTally::EMPTY)
                        .record(dist);
                }
            }
        }
    }

    /// Record a forward-discovery observation immediately (atlas builds
    /// run outside the campaign loop, so no buffering is needed).
    /// First-wins: an existing observation is kept.
    pub fn forward_insert(&self, source: Addr, hop: Addr, reply: Option<RrReply>) {
        let mut g = self.published.write().expect("stopset lock poisoned");
        g.forward.entry((source, hop)).or_insert(reply);
    }

    /// Drop every forward-discovery observation for `source` (atlas
    /// refresh: a forced rebuild must re-measure, not replay staleness).
    pub fn forward_clear_source(&self, source: Addr) {
        let mut g = self.published.write().expect("stopset lock poisoned");
        g.forward.retain(|&(s, _), _| s != source);
    }

    // ---- introspection ----------------------------------------------------

    /// Logical byte footprint of the published hint tables, split by
    /// group. Entry counts × fixed per-entry footprints plus four bytes
    /// per stored hop — a pure function of published contents, so readings
    /// are identical for any worker count that publishes the same view.
    pub fn approx_bytes(&self) -> StopSetBytes {
        let g = self.published.read().expect("stopset lock poisoned");
        let key2 = std::mem::size_of::<(Addr, Addr)>();
        let backward = g
            .backward
            .values()
            .map(|e| {
                let stored = |s: &Option<StoredRr>| {
                    s.as_ref()
                        .map(|s| s.hops.len() * std::mem::size_of::<Addr>())
                        .unwrap_or(0)
                };
                key2 + BACKWARD_ENTRY_BYTES + stored(&e.direct) + stored(&e.spoofed)
            })
            .sum::<usize>() as u64;
        // A reply holds its slots inline: an entry has no heap part.
        let forward = (g.forward.len() * (key2 + std::mem::size_of::<Option<RrReply>>())
            + g.distances.len() * std::mem::size_of::<((Addr, u32), u8)>()
            + g.measured_distances.len() * std::mem::size_of::<(Addr, DistanceTally)>())
            as u64;
        let ladder =
            (g.winners.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<Addr>())) as u64;
        let futility = (g.direct_futile.len() * key2
            + g.spoof_futile.len() * std::mem::size_of::<Addr>()) as u64;
        StopSetBytes {
            backward,
            forward,
            ladder,
            futility,
        }
    }

    /// Effectiveness counters so far.
    pub fn stats(&self) -> StopSetSnapshot {
        StopSetSnapshot {
            backward_hits: self.stats.get(BACKWARD_HITS),
            backward_misses: self.stats.get(BACKWARD_MISSES),
            forward_hits: self.stats.get(FORWARD_HITS),
            forward_misses: self.stats.get(FORWARD_MISSES),
            direct_skips: self.stats.get(DIRECT_SKIPS),
            spoof_skips: self.stats.get(SPOOF_SKIPS),
            vp_skips: 0,
            winner_hits: self.stats.get(WINNER_HITS),
            distance_hits: self.stats.get(DISTANCE_HITS),
            distance_misses: self.stats.get(DISTANCE_MISSES),
        }
    }
}

/// An open consult of the published view (see [`StopSet::consult`]). Its
/// sets answer membership questions only; none is listed.
pub struct Consult<'a> {
    set: &'a StopSet,
    view: RwLockReadGuard<'a, Published>,
}

impl Consult<'_> {
    /// Backward consult: reusable evidence at `(src, cur)`, preferring the
    /// direct slot. Counts a hit or miss.
    pub fn backward(&self, src: Addr, cur: Addr) -> Option<(StoredRr, bool)> {
        match self.view.backward.get(&(src, cur)).and_then(|e| e.best()) {
            Some((s, spoofed)) => {
                self.set.stats.add(BACKWARD_HITS, 1);
                Some((*s, spoofed))
            }
            None => {
                self.set.stats.add(BACKWARD_MISSES, 1);
                None
            }
        }
    }

    /// The remembered ladder-winner VP for an ingress plan, if any.
    /// Counts a winner hit when present (the consult is free either way —
    /// this is a hint, not a lookup that replaces a probe by itself).
    pub fn winner(&self, plan: u64) -> Option<Addr> {
        let w = self.view.winners.get(&plan).copied();
        if w.is_some() {
            self.set.stats.add(WINNER_HITS, 1);
        }
        w
    }

    /// Whether direct RR from `src` is known futile at this exact router,
    /// and how. Counts a skip when it is.
    pub fn direct_futile(&self, src: Addr, cur: Addr) -> Option<DirectVerdict> {
        let silent = *self.view.direct_futile.get(&(src, cur))?;
        self.set.stats.add(DIRECT_SKIPS, 1);
        Some(match silent {
            true => DirectVerdict::Silent,
            false => DirectVerdict::Futile,
        })
    }

    /// Whether the spoofed ladder at `cur` is known exhausted without a
    /// usable reply (for any source). Counts a skip when true.
    pub fn spoof_futile(&self, cur: Addr) -> bool {
        let f = self.view.spoof_futile.contains(&cur);
        if f {
            self.set.stats.add(SPOOF_SKIPS, 1);
        }
        f
    }

    /// How many TTLs from `src` a probe toward `addr` should start at: the
    /// distance `src` last measured into `addr`'s /24, else its /16 (a
    /// hit), else the running median of everything `src` measured (a
    /// miss); `None` before `src` measured anything.
    pub fn distance(&self, src: Addr, addr: Addr) -> Option<u8> {
        let near = [24, 16]
            .into_iter()
            .find_map(|len| self.view.distances.get(&(src, block_key(addr, len))));
        let counter = match near {
            Some(_) => DISTANCE_HITS,
            None => DISTANCE_MISSES,
        };
        self.set.stats.add(counter, 1);
        near.copied()
            .or_else(|| Some(self.view.measured_distances.get(&src)?.median))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SentEpoch;

    fn prov(sender: Addr, claimed: Addr, dst: Addr, nonce: u64) -> RrProvenance {
        RrProvenance {
            sender,
            claimed,
            dst,
            nonce,
            fwd_epoch: SentEpoch::default(),
            rep_epoch: SentEpoch::default(),
            from_cache: false,
        }
    }

    fn backward_note(src: Addr, cur: Addr, spoofed: bool, hop: Addr, nonce: u64) -> Note {
        Note::Backward {
            src,
            cur,
            spoofed,
            stored: StoredRr {
                hops: [hop].into_iter().collect(),
                provenance: prov(src, src, cur, nonce),
            },
        }
    }

    #[test]
    fn consults_are_invisible_until_merge() {
        let s = StopSet::new();
        let (src, cur, hop) = (Addr(1), Addr(2), Addr(3));
        s.contribute(Contribution {
            vtime: 10.0,
            req: 0,
            seq: 0,
            note: backward_note(src, cur, false, hop, 7),
        });
        assert!(
            s.consult().backward(src, cur).is_none(),
            "pending must be invisible"
        );
        assert_eq!(s.pending.lock().expect("unpoisoned").len(), 1);
        s.merge_pending();
        assert_eq!(s.pending.lock().expect("unpoisoned").len(), 0);
        let (stored, spoofed) = s
            .consult()
            .backward(src, cur)
            .expect("merged entry visible");
        assert_eq!(stored.hops[..], [hop]);
        assert!(!spoofed);
        let st = s.stats();
        assert_eq!(st.backward_hits, 1);
        assert_eq!(st.backward_misses, 1);
    }

    #[test]
    fn merge_order_is_stamp_order_not_insertion_order() {
        // Two tasks contribute conflicting evidence for the same key; the
        // lower (vtime, req, seq) stamp must win regardless of the order
        // the contributions were buffered in (i.e. of OS scheduling).
        let (src, cur) = (Addr(1), Addr(2));
        let early = Contribution {
            vtime: 5.0,
            req: 9,
            seq: 3,
            note: backward_note(src, cur, false, Addr(100), 1),
        };
        let late = Contribution {
            vtime: 5.0,
            req: 10,
            seq: 0,
            note: backward_note(src, cur, false, Addr(200), 2),
        };
        for order in [[&early, &late], [&late, &early]] {
            let s = StopSet::new();
            for c in order {
                s.contribute((*c).clone());
            }
            s.merge_pending();
            let (stored, _) = s.consult().backward(src, cur).expect("entry");
            assert_eq!(
                stored.hops[..],
                [Addr(100)],
                "first-by-stamp must win in every insertion order"
            );
        }
    }

    #[test]
    fn direct_and_spoofed_slots_are_independent_and_direct_preferred() {
        let s = StopSet::new();
        let (src, cur) = (Addr(1), Addr(2));
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 0,
            note: backward_note(src, cur, true, Addr(50), 1),
        });
        s.merge_pending();
        let (_, spoofed) = s.consult().backward(src, cur).expect("spoofed slot");
        assert!(spoofed);
        // A later direct observation fills the empty direct slot and is
        // then preferred, without evicting the spoofed one.
        s.contribute(Contribution {
            vtime: 2.0,
            req: 1,
            seq: 0,
            note: backward_note(src, cur, false, Addr(60), 2),
        });
        s.merge_pending();
        let (stored, spoofed) = s.consult().backward(src, cur).expect("direct slot");
        assert!(!spoofed, "direct evidence preferred once present");
        assert_eq!(stored.hops[..], [Addr(60)]);
    }

    #[test]
    fn winner_and_futility_hints() {
        let s = StopSet::new();
        let src = Addr(1);
        let cur = Addr(40);
        assert!(s.consult().winner(4).is_none());
        assert_eq!(s.consult().direct_futile(src, cur), None);
        assert!(!s.consult().spoof_futile(cur));
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 0,
            note: Note::Winner {
                plan: 4,
                vp: Addr(77),
            },
        });
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 1,
            note: Note::DirectFutile {
                src,
                cur,
                silent: false,
            },
        });
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 2,
            note: Note::SpoofFutile { cur },
        });
        // A competing later winner must not replace the first.
        s.contribute(Contribution {
            vtime: 2.0,
            req: 1,
            seq: 0,
            note: Note::Winner {
                plan: 4,
                vp: Addr(88),
            },
        });
        s.merge_pending();
        assert_eq!(s.consult().winner(4), Some(Addr(77)));
        assert_eq!(
            s.consult().direct_futile(src, cur),
            Some(DirectVerdict::Futile)
        );
        assert!(
            s.consult().spoof_futile(cur),
            "router-keyed futility is source-free"
        );
        assert_eq!(
            s.consult().direct_futile(Addr(2), cur),
            None,
            "direct futility stays per-source"
        );
        let st = s.stats();
        assert_eq!(st.winner_hits, 1);
        assert_eq!(st.direct_skips, 1);
        assert_eq!(st.spoof_skips, 1);
    }

    #[test]
    fn silence_outlasts_a_plain_futility_note_in_either_order() {
        let (src, cur) = (Addr(1), Addr(40));
        let note = |silent| Note::DirectFutile { src, cur, silent };
        for order in [[false, true], [true, false]] {
            let s = StopSet::new();
            for (seq, silent) in order.into_iter().enumerate() {
                s.contribute(Contribution {
                    vtime: 1.0,
                    req: 0,
                    seq: seq as u64,
                    note: note(silent),
                });
            }
            s.merge_pending();
            let c = s.consult();
            assert_eq!(c.direct_futile(src, cur), Some(DirectVerdict::Silent));
            assert_eq!(c.direct_futile(Addr(2), cur), None, "the source's own");
            assert!(!c.spoof_futile(cur), "silence marks no router futile");
        }
    }

    #[test]
    fn forward_set_first_wins_and_clears_per_source() {
        let s = StopSet::new();
        let (a, b, hop) = (Addr(1), Addr(2), Addr(9));
        assert!(s.forward(a, hop).is_none());
        s.forward_insert(a, hop, None);
        s.forward_insert(b, hop, None);
        s.forward_insert(a, hop, None); // duplicate: kept, not re-counted
        assert_eq!(s.published.read().expect("unpoisoned").forward.len(), 2);
        assert_eq!(s.forward(a, hop), Some(None), "known-unanswered is a hit");
        s.forward_clear_source(a);
        assert!(s.forward(a, hop).is_none(), "cleared source re-measures");
        assert_eq!(s.forward(b, hop), Some(None), "other sources untouched");
        let st = s.stats();
        assert_eq!(st.forward_hits, 2);
        assert_eq!(st.forward_misses, 2);
    }

    #[test]
    fn distance_hint_answers_from_the_nearest_block_and_tracks_the_latest() {
        let s = StopSet::new();
        let (src, other) = (Addr(1), Addr(2));
        let note = |seq: u64, addr: Addr, dist: u8| Contribution {
            vtime: 1.0,
            req: 0,
            seq,
            note: Note::Distance { src, addr, dist },
        };
        assert_eq!(s.consult().distance(src, Addr::new(9, 1, 1, 1)), None);
        // Buffered in the reverse of stamp order: the merge sorts.
        s.contribute(note(2, Addr::new(9, 1, 1, 77), 12));
        s.contribute(note(1, Addr::new(9, 1, 1, 5), 7));
        s.contribute(note(0, Addr::new(9, 1, 2, 5), 9));
        assert_eq!(
            s.consult().distance(src, Addr::new(9, 1, 1, 1)),
            None,
            "pending must be invisible"
        );
        let bytes_before = s.approx_bytes();
        s.merge_pending();
        let c = s.consult();
        // Same /24: the latest by stamp, not by buffering order.
        assert_eq!(c.distance(src, Addr::new(9, 1, 1, 200)), Some(12));
        assert_eq!(c.distance(src, Addr::new(9, 1, 2, 200)), Some(9));
        // Another /24 of the /16: whatever the /16 saw last.
        assert_eq!(c.distance(src, Addr::new(9, 1, 3, 1)), Some(12));
        // Nothing nearby: the median of everything measured (9, 7, 12).
        assert_eq!(c.distance(src, Addr::new(9, 2, 0, 1)), Some(9));
        assert_eq!(c.distance(src, Addr::new(77, 0, 0, 1)), Some(9));
        assert_eq!(c.distance(other, Addr::new(9, 1, 1, 1)), None, "per source");
        drop(c);
        let st = s.stats();
        assert_eq!((st.distance_hits, st.distance_misses), (3, 5));
        assert_eq!(st.total_hits(), 3);
        let grown = s.approx_bytes();
        assert!(grown.forward > bytes_before.forward, "priced under forward");
        assert_eq!(
            StopSetBytes {
                forward: 0,
                ..grown
            },
            StopSetBytes::default(),
            "and nowhere else"
        );
    }

    #[test]
    fn byte_footprint_splits_by_hint_group() {
        let s = StopSet::new();
        assert_eq!(s.approx_bytes(), StopSetBytes::default());
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 0,
            note: backward_note(Addr(1), Addr(2), false, Addr(3), 7),
        });
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 1,
            note: Note::Winner {
                plan: 4,
                vp: Addr(77),
            },
        });
        s.contribute(Contribution {
            vtime: 1.0,
            req: 0,
            seq: 2,
            note: Note::DirectFutile {
                src: Addr(1),
                cur: Addr(2),
                silent: false,
            },
        });
        s.merge_pending();
        s.forward_insert(Addr(1), Addr(9), None);
        let b = s.approx_bytes();
        assert!(b.backward > 0 && b.forward > 0 && b.ladder > 0 && b.futility > 0);
        assert_eq!(b.total(), b.backward + b.forward + b.ladder + b.futility);
        // Deterministic: same contents, same reading.
        assert_eq!(s.approx_bytes(), b);
    }

    #[test]
    fn snapshot_diffs() {
        let s = StopSet::new();
        s.forward_insert(Addr(1), Addr(2), None);
        s.forward(Addr(1), Addr(2));
        let a = s.stats();
        s.forward(Addr(1), Addr(2));
        s.forward(Addr(1), Addr(3));
        let d = s.stats().since(&a);
        assert_eq!(d.forward_hits, 1);
        assert_eq!(d.forward_misses, 1);
        assert_eq!(d.forward_lookups(), 2);
        assert_eq!(d.total_hits(), 1);
    }
}
