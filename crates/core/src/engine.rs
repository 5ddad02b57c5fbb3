//! The measurement engine: one state machine, one driver.
//!
//! Each reverse traceroute is a `MeasureTask`: a small control block
//! holding the stitching state (current hop, open telemetry spans, the VP
//! plan a pending ladder walks) and an explicit `Phase` enum mirroring
//! the stages the telemetry layer instruments — destination probe → atlas
//! intersection → rr / spoofed-rr rounds → ts → assume-symmetry. The path
//! being stitched lives in the driver's scratch (`crate::scratch`).
//! `MeasureTask::step` advances the block by exactly one stage (or one
//! spoofed-batch round, the virtual 10 s timer of §5.2.4); one step is one
//! *event*.
//!
//! A revtr executes exactly one way: `RevtrSystem::drive` steps its block
//! to completion behind a panic fence. Spoofed-batch waits are virtual —
//! they cost no wall time — so there is nothing to gain from interleaving
//! one block's steps with its neighbours'. [`RevtrSystem::measure`] drives
//! one block inline; [`RevtrSystem::run_campaign`] and the service's open
//! loop ([`WavePool::run_wave_timed`]) run their waves on one [`WavePool`],
//! whose workers live as long as the campaign, claim jobs off an atomic
//! cursor and drive each on the one scratch a worker holds throughout.
//!
//! A block carries its own [`Meter`] — virtual time from the job's origin
//! and a probe tally from zero — and lends it to every probe it sends, so
//! its duration, probe delta, span offsets and stop-set stamps read its
//! own charges and nothing else. Which worker runs which job is up to the
//! OS; campaign *results* are not, because a measurement's outcome depends
//! only on its own probe sequence and on stop-set evidence published at
//! earlier wave barriers (cross-request coupling through route churn
//! aside — the metamorphic suite pins the invariance with churn quiesced).

use crate::config::{SymmetryPolicy, MAX_PATH_HOPS};
use crate::result::{
    Evidence, Path, ProbeDelta, RevtrHop, RevtrResult, RevtrStats, Status, StitchEnd,
};
use crate::scratch::{novel, on_path, Scratch};
use crate::system::{Books, RevtrSystem, RrFound, RrHints, RrMachine, RrProgress, StageStart};
use parking_lot::{Mutex, RwLock};
use revtr_atlas::SourceAtlas;
use revtr_netsim::{Addr, PrefixId};
use revtr_probing::{Contribution, Meter, Note, RequestScope, StoredRr};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle, Thread};

/// How wide a wave runs. Campaign *results* are invariant to it; only which
/// worker drives which job — and under route churn, what each sees — changes.
#[derive(Clone, Copy, Debug)]
pub struct LoopConfig {
    /// Workers claiming jobs off a wave's cursor, clamped to the host's
    /// cores (counted once per system, by its first wave) and the wave's
    /// jobs. `1` (the default) drives every job on
    /// the calling thread in index order — the reproducible schedule the
    /// metrics goldens pin; more are the calling thread plus scoped threads
    /// that live as long as the campaign ([`WavePool`]).
    pub workers: usize,
}

impl Default for LoopConfig {
    fn default() -> LoopConfig {
        LoopConfig { workers: 1 }
    }
}

impl LoopConfig {
    /// The production width: a small pool per campaign. Results are identical
    /// to [`LoopConfig::default`]; cache and probe *counters* are not
    /// reproducible (two workers can miss the same cache key and both
    /// probe), which is why golden-pinned paths use the serial default.
    pub fn parallel() -> LoopConfig {
        LoopConfig { workers: 8 }
    }
}

/// What a campaign run produced, with the engine's own accounting.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-pair results, in input order.
    pub results: Vec<RevtrResult>,
    /// Total events: one per stage or spoofed-batch round, summed over
    /// the campaign's measurements. Identical at every width.
    pub events: u64,
}

/// One admitted request of an open-loop wave: a measurement plus the
/// virtual arrival time and degradation level the admission layer fixed
/// for it. Consumed by [`WavePool::run_wave_timed`]; a campaign's pairs run
/// as the same thing, arriving at virtual zero at full service.
#[derive(Clone, Copy, Debug)]
pub struct TimedJob {
    /// Reverse traceroute destination.
    pub dst: Addr,
    /// Registered source the path is stitched toward.
    pub src: Addr,
    /// Virtual arrival time in milliseconds since campaign start: where
    /// the control block's meter starts.
    pub arrival_ms: f64,
    /// Campaign-unique request id (stop-set contribution stamp); callers
    /// use the global arrival index.
    pub id: usize,
    /// Degradation-ladder level for this request (0 = full service; see
    /// `MeasureTask::degrade`).
    pub degrade: u8,
}

impl TimedJob {
    /// The job's control block at the starting line, its meter anchored at
    /// the arrival time.
    fn task<'a>(&self) -> MeasureTask<'a> {
        let mut t = MeasureTask::new(self.dst, self.src).arriving_at(self.arrival_ms);
        t.id = self.id;
        t.degrade = self.degrade;
        t
    }
}

/// Size in bytes of one admitted measurement's control block (the path
/// it is stitching sits in its driver's scratch, not in the block). The
/// `engine.control_blocks` ledger prices a wave at this much per admitted
/// request.
pub fn task_footprint_bytes() -> usize {
    std::mem::size_of::<MeasureTask<'_>>()
}

/// Where a control block resumes on its next step. The variants track the
/// stage spans PR 4's telemetry already names; `Rr`/`RrVerify` park the
/// mid-flight spoofed-batch machine across the virtual 10 s timer.
// `RrVerify` carries a concluded discovery beside its machine and is about
// twice the next variant. The phase sits inline in the control block and
// is swapped in place every step; boxing the variant would put an
// allocation on every verification re-probe to save bytes no ledger
// misses (the block is priced at its full size either way).
#[allow(clippy::large_enum_variant)]
enum Phase<'a> {
    /// Atlas lookup, request-scope open, destination probe.
    Start,
    /// Top of the stitching loop: hop budget, reached-check, atlas
    /// intersection, and the beginning of the RR step.
    StitchLoop,
    /// Spoofed-RR rounds of the primary RR step.
    Rr(RrMachine<'a>),
    /// Spoofed-RR rounds of the Appx. E verification re-probe.
    RrVerify {
        /// The primary step's (already concluded) discovery.
        found: RrFound,
        /// The open `rr_verify` span.
        vspan: StageStart,
        /// The hop the re-probe must reconfirm (`rev[1]`).
        expected: Addr,
        /// The nested step's spoofed-round state.
        m: RrMachine<'a>,
    },
    /// Adopt the RR step's hops, or fall through to ts/symmetry.
    RrAdopt(Option<RrFound>),
    /// Timestamp adjacency tests (revtr 1.0 only).
    Ts,
    /// Last-link measurement + symmetry assumption / interdomain abort.
    Symmetry,
    /// Terminal: the result has been produced.
    Done,
}

/// The per-measurement control block: one in-flight reverse traceroute.
/// `'a` is the borrow of the system a pending ladder reads its VP plan
/// through. The path itself — each hop with its evidence — is assembled in
/// the driver's [`Scratch`] and sealed into one block at `finish`.
pub(crate) struct MeasureTask<'a> {
    dst: Addr,
    src: Addr,
    src_prefix: Option<PrefixId>,
    atlas: Option<Arc<SourceAtlas>>,
    req: Option<RequestScope>,
    /// The task's own clock and probe tally: virtual time from
    /// `origin_ms`, probes and events from zero, charged by every probe
    /// the task sends and every step it takes.
    meter: Meter,
    stats: RevtrStats,
    cur: Addr,
    /// Stitch-loop iterations so far. Narrow on purpose: with a word here
    /// the block's small fields spill into one more.
    iters: u32,
    phase: Phase<'a>,
    /// Campaign request id — the middle component of stop-set
    /// contribution stamps (0 on the serial [`RevtrSystem::measure`]
    /// path, the pair index under [`RevtrSystem::run_campaign`]).
    pub(crate) id: usize,
    /// Per-request stop-set contribution sequence (stamp tie-break).
    cseq: u64,
    /// Whether the in-flight RR step skipped its direct probe on a
    /// futility hint — a step that then reveals nothing must not publish
    /// `DirectFutile` as if it had (re)measured the futility.
    rr_direct_skipped: bool,
    /// Same guard for the spoofed ladder: a step that skipped the ladder
    /// on a `SpoofFutile` hint must not re-publish the futility.
    rr_spoof_skipped: bool,
    /// Whether the in-flight ladder saw any usable reply (see
    /// `RrMachine::usable_seen`) — a ladder that did must not be
    /// published as futile even when it revealed nothing novel here.
    rr_ladder_usable: bool,
    /// How many TTLs from the source `cur` sits, when the previous
    /// symmetry step just measured it (`cur` is the hop that step's probes
    /// found); 0 once `cur` moved any other way.
    chain_dist: u8,
    /// Where `meter` started: 0 for `measure()` and campaigns, the arrival
    /// time for timed jobs ([`MeasureTask::arriving_at`]).
    origin_ms: f64,
    /// Degradation-ladder level assigned at admission (0 = full service;
    /// 1 = spoofed batches capped at one probe; 2+ = cache/stop-set/atlas
    /// evidence only, no new RR probes). Fixed for the task's lifetime —
    /// the admission layer, not the engine, moves the ladder.
    pub(crate) degrade: u8,
}

impl<'a> MeasureTask<'a> {
    /// A control block at the starting line. Does not probe; the first
    /// [`MeasureTask::step`] does.
    pub(crate) fn new(dst: Addr, src: Addr) -> MeasureTask<'a> {
        MeasureTask {
            dst,
            src,
            src_prefix: None,
            atlas: None,
            req: None,
            meter: Meter::default(),
            stats: RevtrStats::default(),
            cur: dst,
            iters: 0,
            phase: Phase::Start,
            id: 0,
            cseq: 0,
            rr_direct_skipped: false,
            rr_spoof_skipped: false,
            rr_ladder_usable: false,
            chain_dist: 0,
            origin_ms: 0.0,
            degrade: 0,
        }
    }

    /// The same block with its meter anchored at a timed job's virtual
    /// arrival. Before the first step only.
    pub(crate) fn arriving_at(mut self, arrival_ms: f64) -> MeasureTask<'a> {
        self.origin_ms = arrival_ms;
        self.meter = Meter::at(arrival_ms);
        self
    }

    /// Buffer a stop-set contribution stamped with this task's own virtual
    /// time and `(request id, sequence)` — a pure function of the task's
    /// measurement history, so merge order is schedule-invariant.
    fn contribute(&mut self, sys: &RevtrSystem<'_>, note: Note) {
        let seq = self.cseq;
        self.cseq += 1;
        sys.stopset().contribute(Contribution {
            vtime: self.meter.ms,
            req: self.id as u64,
            seq,
            note,
        });
    }

    /// Advance the measurement by one stage (or one spoofed-batch round)
    /// on the driver's scratch — the same one for every step of a task.
    /// Returns the finished result, or `None` when the block yielded.
    pub(crate) fn step(
        &mut self,
        sys: &'a RevtrSystem<'_>,
        sx: &mut Scratch,
    ) -> Option<RevtrResult> {
        // One loop event per step, charged before any stage span opens so
        // every stage's cost delta includes it. A pure function of the
        // task's own history — identical at any worker count.
        sys.prober().count_events(&mut self.meter, 1);
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Start => self.start(sys, sx),
            Phase::StitchLoop => self.stitch_head(sys, sx),
            Phase::Rr(m) => self.rr_pending(sys, sx, m),
            Phase::RrVerify {
                found,
                vspan,
                expected,
                m,
            } => self.verify_pending(sys, sx, found, vspan, expected, m),
            Phase::RrAdopt(found) => self.adopt(sys, sx, found),
            Phase::Ts => self.ts(sys, sx),
            Phase::Symmetry => self.symmetry(sys, sx),
            Phase::Done => unreachable!("stepped a finished measurement"),
        }
    }

    /// Seal the result: duration and probe delta are what the task's
    /// meter read, exactly its own charges under any scheduling. The path
    /// is flagged for suspicious gaps in the scratch and leaves it as one
    /// block — the only allocation a measurement makes for itself — and the
    /// telemetry scope's buffers go back into it.
    fn finish(
        &mut self,
        sys: &RevtrSystem<'_>,
        sx: &mut Scratch,
        status: Status,
        end: StitchEnd,
    ) -> RevtrResult {
        self.stats.duration_s = (self.meter.ms - self.origin_ms) / 1000.0;
        self.stats.probes = ProbeDelta::from_snapshot(&self.meter.tally);
        if let Some(mut req) = self.req.take() {
            req.finish(status.label(), self.meter.ms);
            req.release(&mut sx.scope);
        }
        sys.flag_suspicious(&mut sx.hops);
        RevtrResult {
            dst: self.dst,
            src: self.src,
            status,
            hops: Path::new(&sx.hops),
            stats: self.stats,
            end,
        }
    }

    fn start(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> Option<RevtrResult> {
        sx.hops.clear();
        self.atlas = Some(sys.atlas(self.src));
        let prober = sys.prober();
        self.src_prefix = sys.sim().host_prefix(self.src);
        // Telemetry request scope (inert unless the prober carries an
        // enabled handle). The origin is this task's virtual time, so
        // span offsets are invariant to concurrent measurements' advances.
        self.req = Some(prober.telemetry().request_in(
            &mut sx.scope,
            self.dst.0,
            self.src.0,
            self.meter.ms,
        ));

        // The destination must answer something.
        let (src, dst) = (self.src, self.dst);
        let mut t = self.books();
        let st = t.enter("destination_probe");
        let answered = prober.ping_metered(t.meter, src, dst).is_some();
        t.exit(st, &[("answered", u64::from(answered))]);
        if !answered {
            return Some(self.finish(sys, sx, Status::Unresponsive, StitchEnd::Unresponsive));
        }

        sx.hops
            .push(RevtrHop::new(Some(self.dst), Evidence::Destination));
        self.cur = self.dst;
        self.phase = Phase::StitchLoop;
        None
    }

    fn stitch_head(&mut self, sys: &'a RevtrSystem<'_>, sx: &mut Scratch) -> Option<RevtrResult> {
        if self.iters as usize == MAX_PATH_HOPS {
            return Some(self.finish(sys, sx, Status::Stuck, StitchEnd::HopBudget));
        }
        self.iters += 1;
        if sys.reached(self.cur, self.src, self.src_prefix) {
            return Some(self.finish(sys, sx, Status::Complete, StitchEnd::ReachedSource));
        }

        // 1. Atlas intersection.
        let atlas = self.atlas.clone().expect("atlas resolved in Start");
        let atlas_span = self.books().enter("atlas_intersection");
        if let Some(inter) = sys
            .lookup_intersection(self.src, &atlas, self.cur)
            .filter(|i| {
                // Hardened engines cross-validate the suffix before
                // adopting it (poisoned-atlas countermeasure): the join
                // must name the frontier router (or its /30 peer) and
                // every visible adjacent pair must be plausibly
                // consecutive — the same checks the audit oracle grades.
                // A rejected intersection is demoted: the step falls
                // through to RR and, failing that, assumed symmetry,
                // with the demotion recorded in telemetry.
                if !sys.config().harden || sys.atlas_suffix_plausible(self.cur, atlas.suffix(*i)) {
                    return true;
                }
                sys.prober()
                    .telemetry()
                    .counter_add("core.harden.atlas_rejected", 1);
                false
            })
        {
            sys.note_intersection_usage(self.src, inter.trace);
            self.stats.intersected_trace = Some(inter.trace);
            self.stats.intersected_hop = Some(inter.hop);
            self.stats.intersected_trace_age_h =
                Some(atlas.trace_age_hours(inter, sys.sim().now_hours()));
            let t = &atlas.traces[inter.trace];
            let suffix = atlas.suffix(inter);
            for (i, h) in suffix.iter().enumerate() {
                if i == 0 && *h == Some(self.cur) {
                    continue; // already in the path
                }
                self.stats.atlas_hops += 1;
                let evidence = if i == 0 {
                    // An alias join: this hop's address differs from
                    // `cur` but names the same router (or /30 link).
                    Evidence::AtlasIntersection {
                        source: self.src,
                        vp: t.vp,
                        at_hours: t.at_hours,
                        joined: self.cur,
                    }
                } else {
                    Evidence::TrToSource {
                        source: self.src,
                        vp: t.vp,
                        at_hours: t.at_hours,
                    }
                };
                sx.hops.push(RevtrHop::new(*h, evidence));
            }
            let atlas_hops = u64::from(self.stats.atlas_hops);
            self.books()
                .exit(atlas_span, &[("hit", 1), ("atlas_hops", atlas_hops)]);
            return Some(self.finish(sys, sx, Status::Complete, StitchEnd::AtlasSuffix));
        }
        self.books().exit(atlas_span, &[("hit", 0)]);

        // 2. Campaign stop sets, everything under one read lock: reuse an
        // earlier request's reverse-hop evidence at this (source, router)
        // before spending any probes — the Doubletree-style backward stop.
        // The stored hops are re-filtered against *this* path, and
        // adoption replays the original provenance, exactly like a
        // measurement-cache hit. Failing that, collect the hints the RR
        // step opens with; the set-valued ones land in the scratch — the
        // VPs of this router's plan an earlier ladder proved futile, the
        // VPs under quarantine — where the step tests them for membership.
        let mut hints = RrHints::default();
        sx.demoted.clear();
        sx.quarantined.clear();
        if sys.wave_barriers() {
            let stop = sys.stopset().consult();
            if sys.config().use_stop_sets {
                let ss = self.books().enter("stopset_backward");
                let hit = stop.backward(self.src, self.cur);
                let reused = hit.as_ref().map_or(0, |(s, _)| s.hops.len() as u64);
                self.books()
                    .exit(ss, &[("hit", u64::from(hit.is_some())), ("reused", reused)]);
                if let Some((stored, spoofed)) = hit {
                    let new = novel(&sx.hops, &stored.hops);
                    if !new.is_empty() {
                        self.stats.stopset_reused_steps += 1;
                        self.phase = Phase::RrAdopt(Some((new, stored.provenance, spoofed)));
                        return None;
                    }
                }
                hints.skip_direct = stop.direct_futile(self.src, self.cur);
                hints.skip_spoofed = stop.spoof_futile(self.cur);
                // A skipped ladder has no use for its winner or VP prunes
                // (and consulting them would inflate the hit counters).
                if !hints.skip_spoofed {
                    if let Some(plan) = sys.stop_plan_key(self.cur) {
                        hints.winner = stop.winner(plan);
                        let futile = sys
                            .plan_vps(self.cur)
                            .filter(|&vp| stop.vp_futile(plan, vp));
                        sx.demoted.extend(futile);
                    }
                }
            }
            if sys.config().harden {
                // VP quarantine (spoof-filter countermeasure): vantage
                // points whose recent spoofed pairs mostly vanished are
                // deprioritized — moved to the back of the ladder, never
                // dropped, so a recovering VP re-proves itself on its next
                // (cheap, late-ladder) attempt — and granted a single
                // re-batch. Taken once for the whole ladder.
                sx.quarantined.extend(stop.quarantined_vps());
                sys.stopset()
                    .note_quarantine_skips(sx.quarantined.len() as u64);
                sx.demoted.extend_from_slice(&sx.quarantined);
            }
        }
        // Degradation ladder (admission control's brownout levels, set
        // per timed job): L1 shrinks the spoofed batch to one probe; L2+
        // additionally answers from cache/stop-set/atlas evidence only —
        // no new RR probes at all. The skip flags below keep a degraded
        // step from publishing false futility into the stop sets, the
        // same guard the stop-set hints already need.
        match self.degrade {
            0 => {}
            1 => {
                hints.batch_cap = Some(1);
                sys.prober()
                    .telemetry()
                    .counter_add("core.degrade.capped_steps", 1);
            }
            _ => {
                hints.batch_cap = Some(1);
                hints.skip_direct = true;
                hints.skip_spoofed = true;
                sys.prober()
                    .telemetry()
                    .counter_add("core.degrade.rr_suppressed", 1);
            }
        }
        self.rr_direct_skipped = hints.skip_direct;
        self.rr_spoof_skipped = hints.skip_spoofed;
        self.rr_ladder_usable = false;

        // 3. Record route (direct probe now; spoofed rounds event-driven).
        match sys.rr_begin(self.cur, self.src, sx, &mut self.books(), hints) {
            RrProgress::Done(found) => self.after_primary_rr(sys, sx, found),
            RrProgress::Pending(m) => self.phase = Phase::Rr(m),
        }
        None
    }

    fn rr_pending(
        &mut self,
        sys: &'a RevtrSystem<'_>,
        sx: &mut Scratch,
        mut m: RrMachine<'a>,
    ) -> Option<RevtrResult> {
        match sys.rr_round(&mut m, self.src, sx, &mut self.books()) {
            None => self.phase = Phase::Rr(m),
            Some(found) => {
                self.rr_ladder_usable = m.usable_seen;
                if sys.config().use_stop_sets {
                    if let Some(plan) = sys.stop_plan_key(self.cur) {
                        for &vp in &sx.futile_vps {
                            self.contribute(sys, Note::VpFutile { plan, vp });
                        }
                    }
                }
                // Feed each VP's landed/vanished outcomes into the
                // sliding quarantine windows (published at the next
                // merge barrier, like every stop-set contribution).
                // Recorded under hardening only.
                for &(vp, landed) in &sx.spoof_outcomes {
                    self.contribute(sys, Note::VpSpoofOutcome { vp, landed });
                }
                self.after_primary_rr(sys, sx, found);
            }
        }
        None
    }

    /// The primary RR step concluded: start the Appx. E verification
    /// re-probe when configured and applicable, else go adopt.
    fn after_primary_rr(
        &mut self,
        sys: &'a RevtrSystem<'_>,
        sx: &mut Scratch,
        found: Option<RrFound>,
    ) {
        // Publish what the step learned to the campaign stop sets
        // (buffered; visible to other requests after the next merge
        // barrier). `self.cur` is still the frontier router here — adopt
        // has not advanced it yet.
        if sys.config().use_stop_sets {
            match found.as_ref() {
                Some((rev, prov, spoofed)) => {
                    self.contribute(
                        sys,
                        Note::Backward {
                            src: self.src,
                            cur: self.cur,
                            spoofed: *spoofed,
                            stored: StoredRr {
                                hops: *rev,
                                provenance: *prov,
                            },
                        },
                    );
                    if *spoofed {
                        if let Some(plan) = sys.stop_plan_key(self.cur) {
                            self.contribute(
                                sys,
                                Note::Winner {
                                    plan,
                                    vp: prov.sender,
                                },
                            );
                        }
                        // The spoofed ladder won, so the direct probe
                        // (when actually sent) revealed nothing.
                        if !self.rr_direct_skipped {
                            self.contribute(
                                sys,
                                Note::DirectFutile {
                                    src: self.src,
                                    cur: self.cur,
                                },
                            );
                        }
                    }
                }
                None => {
                    if !self.rr_direct_skipped {
                        self.contribute(
                            sys,
                            Note::DirectFutile {
                                src: self.src,
                                cur: self.cur,
                            },
                        );
                    }
                    // An empty-handed conclusion with the ladder actually
                    // run means the *full* ladder was exhausted (the
                    // winner-solo path falls back to the staged full
                    // queues before concluding).
                    // Only mark the router spoof-futile when the whole
                    // ladder saw *zero usable replies*: a reply that was
                    // usable but merely not novel for this request's path
                    // is request-specific evidence, not proof the router
                    // ignores spoofed RR probes.
                    if !self.rr_spoof_skipped && !self.rr_ladder_usable {
                        self.contribute(sys, Note::SpoofFutile { cur: self.cur });
                    }
                }
            }
        }
        // Hardened engines always run the Appx. E re-probe: the DBR
        // scenario's violating regions are only detectable by an
        // independent re-measurement of the revealed chain.
        if sys.config().verify_dbr || sys.config().harden {
            if let Some(f) = found.as_ref().filter(|(r, _, _)| r.len() >= 2) {
                // Appx. E optional mode: re-probe the first revealed hop
                // and confirm the chain continues the same way. The
                // comparison is against the *immediate* next hop: a
                // source-dependent router sends the two probes' replies
                // down different links right away, and a weaker
                // "appears anywhere later" check misses detours that
                // reconverge within a hop or two.
                if let Some(first) = f.0.first().copied().filter(|a| !a.is_private()) {
                    let expected = f.0[1];
                    let vspan = self.books().enter("rr_verify");
                    // The verification re-probe neither consults nor feeds
                    // the stop sets: its whole point is an independent
                    // re-measurement. Its ladder deprioritizes no one;
                    // quarantine (a hardened engine's stall budgets) is
                    // taken afresh, once for this ladder too.
                    sx.demoted.clear();
                    sx.quarantined.clear();
                    if sys.config().harden {
                        sx.quarantined
                            .extend(sys.stopset().consult().quarantined_vps());
                    }
                    match sys.rr_begin(first, self.src, sx, &mut self.books(), RrHints::default()) {
                        RrProgress::Done(v) => {
                            let violated = self.close_verify(sys, v, expected, vspan);
                            self.phase =
                                Phase::RrAdopt(harden_demote(sys, self.cur, found, violated));
                        }
                        RrProgress::Pending(m) => {
                            self.phase = Phase::RrVerify {
                                found: found.expect("filter above matched Some"),
                                vspan,
                                expected,
                                m,
                            };
                        }
                    }
                    return;
                }
            }
        }
        self.phase = Phase::RrAdopt(found);
    }

    fn verify_pending(
        &mut self,
        sys: &'a RevtrSystem<'_>,
        sx: &mut Scratch,
        found: RrFound,
        vspan: StageStart,
        expected: Addr,
        mut m: RrMachine<'a>,
    ) -> Option<RevtrResult> {
        match sys.rr_round(&mut m, self.src, sx, &mut self.books()) {
            None => {
                self.phase = Phase::RrVerify {
                    found,
                    vspan,
                    expected,
                    m,
                };
            }
            Some(v) => {
                let violated = self.close_verify(sys, v, expected, vspan);
                self.phase = Phase::RrAdopt(harden_demote(sys, self.cur, Some(found), violated));
            }
        }
        None
    }

    /// Returns whether *this* re-probe detected a violation (the stats
    /// flag is cumulative across the measurement; the fresh verdict is
    /// what the hardened demotion keys on).
    fn close_verify(
        &mut self,
        sys: &RevtrSystem<'_>,
        v: Option<RrFound>,
        expected: Addr,
        vspan: StageStart,
    ) -> bool {
        let verify = v.map(|(h, _, _)| h).unwrap_or_default();
        let mut fresh = false;
        if let Some(&h0) = verify.first() {
            if h0 != expected && !sys.hop_match(h0, expected) {
                fresh = true;
                self.stats.dbr_violation_detected = true;
                // Campaign-wide violation rate: a handful per campaign is
                // route-diversity noise; a DBR-violating region drives it
                // an order of magnitude higher, which the scenario SLO
                // policy alerts on.
                sys.prober()
                    .telemetry()
                    .counter_add("core.verify.dbr_mismatch", 1);
            }
        }
        let violation = u64::from(self.stats.dbr_violation_detected);
        self.books().exit(vspan, &[("violation", violation)]);
        fresh
    }

    fn adopt(
        &mut self,
        sys: &RevtrSystem<'_>,
        sx: &mut Scratch,
        found: Option<RrFound>,
    ) -> Option<RevtrResult> {
        if let Some((rev, prov, spoofed)) = found {
            let evidence = if spoofed {
                Evidence::SpoofedRecordRoute { prov }
            } else {
                Evidence::RecordRoute { prov }
            };
            sx.hops
                .extend(rev.iter().map(|&h| RevtrHop::new(Some(h), evidence)));
            // Continue from the last routable hop.
            if let Some(&next) = rev.iter().rev().find(|a| !a.is_private()) {
                self.cur = next;
                self.chain_dist = 0;
                self.phase = Phase::StitchLoop;
                return None;
            }
        }
        self.phase = if sys.config().use_timestamp {
            Phase::Ts
        } else {
            Phase::Symmetry
        };
        None
    }

    fn ts(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> Option<RevtrResult> {
        let ts_span = self.books().enter("ts_step");
        let adj = sys.ts_step(&mut self.meter, self.cur, self.src, &sx.hops);
        let found = u64::from(adj.is_some());
        self.books().exit(ts_span, &[("found", found)]);
        if let Some(adj) = adj {
            let evidence = Evidence::Timestamp {
                tested_from: self.cur,
            };
            sx.hops.push(RevtrHop::new(Some(adj), evidence));
            self.cur = adj;
            self.chain_dist = 0;
            self.phase = Phase::StitchLoop;
        } else {
            self.phase = Phase::Symmetry;
        }
        None
    }

    fn symmetry(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> Option<RevtrResult> {
        let policy = sys.config().symmetry;
        let sym_span = self.books().enter("assume_symmetry");
        // Where to start probing: what the deployment already measured,
        // nearest knowledge first — this request's own previous step, the
        // campaign's forward distances, a constant.
        let hint = match self.chain_dist {
            0 => sys
                .config()
                .use_stop_sets
                .then(|| sys.stopset().consult().distance(self.src, self.cur))
                .flatten()
                .unwrap_or(COLD_START_TTL),
            known => known,
        };
        let measured = sys
            .prober()
            .last_link(&mut self.meter, self.src, self.cur, hint);
        let link = measured.map(|(link, _sent)| link);
        if let (Some(link), true) = (link, sys.config().use_stop_sets) {
            self.contribute(
                sys,
                Note::Distance {
                    src: self.src,
                    addr: self.cur,
                    dist: link.dist,
                },
            );
        }
        let sym = link.and_then(|link| sys.symmetry_decision(self.cur, link));
        let adopted = sym.as_ref().is_some_and(|d| {
            !(on_path(&sx.hops, d.penult)
                || d.interdomain && policy == SymmetryPolicy::IntradomainOnly)
        });
        let interdomain = sym.as_ref().map_or(0, |d| u64::from(d.interdomain));
        // What the measurement adds is attached where it says something
        // (an absent field reads 0): most links sit adjacent to a target
        // that answered, and the estimator is judged only where it was
        // used — a cached link sent nothing. The TTL probes sent are the
        // stage's `pkts`: it sends nothing else.
        let mut fields = [
            ("adopted", u64::from(adopted)),
            ("interdomain", interdomain),
            ("", 0),
            ("", 0),
            ("", 0),
        ];
        let mut used = 2;
        if let Some((link, sent)) = measured {
            let start_err = if sent > 0 {
                hint.abs_diff(link.dist)
            } else {
                0
            };
            for field in [
                ("start_err", u64::from(start_err)),
                ("gap", u64::from(link.gap)),
                ("unreached", u64::from(!link.reached)),
            ] {
                if field.1 > 0 {
                    fields[used] = field;
                    used += 1;
                }
            }
        }
        self.books().exit(sym_span, &fields[..used]);
        let (Some(d), Some(link)) = (sym, link) else {
            return Some(self.finish(sys, sx, Status::Stuck, StitchEnd::Stuck));
        };
        if on_path(&sx.hops, d.penult) {
            return Some(self.finish(sys, sx, Status::Stuck, StitchEnd::Stuck));
        }
        if d.interdomain && policy == SymmetryPolicy::IntradomainOnly {
            let end = StitchEnd::AbortInterdomain {
                cur: self.cur,
                penult: d.penult,
                cur_as: d.cur_as,
                penult_as: d.penult_as,
            };
            return Some(self.finish(sys, sx, Status::AbortedInterdomain, end));
        }
        self.stats.assumed_symmetric += 1;
        if d.interdomain {
            self.stats.assumed_interdomain += 1;
        }
        let evidence = Evidence::AssumedSymmetric {
            cur: self.cur,
            penult: d.penult,
            cur_as: d.cur_as,
            penult_as: d.penult_as,
            interdomain: d.interdomain,
            policy,
        };
        sx.hops.push(RevtrHop {
            // The adopted hop is not known adjacent to `cur` when TTLs
            // between them stayed silent, or when `cur` never answered and
            // the trace merely ended: a hop may be missing (§5.2.2's `*`).
            suspicious_gap_before: link.gap > 0 || !link.reached,
            ..RevtrHop::new(Some(d.penult), evidence)
        });
        self.cur = d.penult;
        self.chain_dist = link.penult_dist();
        self.phase = Phase::StitchLoop;
        None
    }

    /// This task's books, lent for a stage.
    fn books(&mut self) -> Books<'_> {
        Books {
            stats: &mut self.stats,
            req: self.req.as_mut().expect("request scope opened in Start"),
            meter: &mut self.meter,
        }
    }
}

/// Hardened engines refuse to adopt an RR chain whose Appx. E re-probe
/// just contradicted it *and* whose junction off the frontier router the
/// audit oracle cannot explain: the chain is demoted — the step falls
/// through to ts/symmetry — instead of stitching hops a DBR-violating
/// region diverted off the true reverse path. A contradiction alone is
/// not enough (route diversity and aliasing produce honest mismatches,
/// and demoting on those measurably trades real coverage for nothing);
/// the oracle corroboration keeps the demotion to chains that are wrong,
/// not merely disputed. Unhardened engines keep the revtr 1.0/2.0
/// behaviour (adopt, but flag the result suspicious).
fn harden_demote(
    sys: &RevtrSystem<'_>,
    cur: Addr,
    found: Option<RrFound>,
    violated: bool,
) -> Option<RrFound> {
    if violated && sys.config().harden {
        if let Some((hops, _, _)) = &found {
            let implausible = hops
                .first()
                .is_some_and(|&h| !sys.junction_plausible(cur, h));
            if implausible {
                sys.prober()
                    .telemetry()
                    .counter_add("core.harden.dbr_demoted", 1);
                return None;
            }
        }
    }
    found
}

/// Where the symmetry step starts its TTL probing when nothing measured
/// says better: the paper-era Internet's median forward distance (between
/// two equally likely starts the lower wins — falling short by `k` TTLs
/// costs one packet less than overshooting by `k`).
const COLD_START_TTL: u8 = 10;

/// Campaign wave width when stop sets are enabled: requests admitted per
/// merge barrier. Between barriers tasks only *buffer* stop-set
/// contributions, so every request in a wave sees exactly the evidence
/// published by earlier waves — a pure function of the input order, never
/// of worker scheduling. Smaller waves share evidence sooner; larger ones
/// expose more concurrency. 64 keeps the pool busy while still letting a
/// 2000-request campaign reuse evidence ~30 times over.
const STOPSET_WAVE: usize = 64;

/// Builds a claimed job's control block.
type TaskOf<'a> = fn(&TimedJob) -> MeasureTask<'a>;

/// Epoch value that tells parked helpers the pool is closing.
const CLOSED: u64 = u64::MAX;

/// How many times a waiter polls before it parks. A wave's straggler and
/// the barrier between two waves are both a few requests' worth of work —
/// tens of microseconds — which is also what a futex sleep and wake-up
/// cost; past that the thread gives its core back. (Measured on the
/// 2-core reference host, `campaign-batch`-shaped rounds: 2 000 polls ran
/// 4–8 % shorter than parking at once, for the same CPU; 200 and 20 000
/// were level with either. EXPERIMENTS.md, *Pool plane*.)
const SPINS: u32 = 2_000;

/// Poll `ready`, then park until it holds. Whoever makes it true unparks
/// this thread afterwards, so a wake-up is never lost; a spurious one only
/// polls again.
fn wait_until(ready: impl Fn() -> bool) {
    for _ in 0..SPINS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    while !ready() {
        std::thread::park();
    }
}

/// The wave being run: written by the pool's owner between waves, read by
/// every worker during one.
#[derive(Default)]
struct Wave {
    jobs: Vec<TimedJob>,
    /// One slot per job, by job index; grown to the widest wave and
    /// emptied at each barrier.
    slots: Vec<OnceLock<RevtrResult>>,
}

/// What a pool's workers share. A wave is *data*: the owner writes the
/// jobs, resets the cursor and bumps the epoch; workers claim job indices
/// off the cursor and count themselves out.
///
/// Orderings: `epoch` is stored `Release` after the wave's jobs, cursor and
/// `running` are in place and loaded `Acquire` by helpers, so a helper that
/// sees the new epoch sees the wave. `running` is decremented `Release`
/// after a helper's last slot write and read `Acquire` by the owner, so at
/// zero every result (and `events`, `poisoned`, `payload`) is visible. The
/// rest is `Relaxed`: an index, a tally and a stop flag publish nothing.
struct Shared<'a, 's> {
    sys: &'a RevtrSystem<'s>,
    task: TaskOf<'a>,
    /// Never contended: the owner writes only while every helper is
    /// between waves, and workers read only during one. The lock is how
    /// safe code says so; each worker takes it once per wave.
    wave: RwLock<Wave>,
    /// Waves published so far, or [`CLOSED`].
    epoch: AtomicU64,
    /// Next unclaimed job index of the wave.
    cursor: AtomicUsize,
    /// Helpers still inside the wave.
    running: AtomicUsize,
    /// Events of the wave's finished jobs.
    events: AtomicU64,
    /// A job panicked: stop claiming.
    poisoned: AtomicBool,
    /// The first panic's payload.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The pool's owner, which the last helper out of a wave unparks.
    caller: Thread,
}

impl Shared<'_, '_> {
    /// Claim jobs off the cursor until the wave is drained or poisoned,
    /// driving each on `sx` and writing its result into the job's slot.
    fn claim(&self, sx: &mut Scratch) {
        let wave = self.wave.read();
        let mut events = 0;
        while !self.poisoned.load(Ordering::Relaxed) {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = wave.jobs.get(i) else { break };
            match self.sys.drive((self.task)(job), sx) {
                Ok((r, steps)) => {
                    events += steps;
                    let _ = wave.slots[i].set(r);
                }
                Err(payload) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    self.payload.lock().get_or_insert(payload);
                    // Whatever the interrupted step left is not reused.
                    *sx = Scratch::default();
                }
            }
        }
        self.events.fetch_add(events, Ordering::Relaxed);
    }

    /// A helper thread's life: park until a wave is published, claim from
    /// it, count out, until the pool closes.
    fn help(&self) {
        let mut sx = self.sys.take_scratch();
        let mut seen = 0;
        loop {
            wait_until(|| self.epoch.load(Ordering::Acquire) != seen);
            seen = self.epoch.load(Ordering::Acquire);
            if seen == CLOSED {
                break;
            }
            self.claim(&mut sx);
            if self.running.fetch_sub(1, Ordering::Release) == 1 {
                self.caller.unpark();
            }
        }
        self.sys.return_scratch(sx);
    }
}

/// A campaign's worker pool: the calling thread plus, from the first wave
/// with work to share, `width − 1` scoped helper threads that park between
/// waves. Each worker keeps its scratch — and its thread's route-fill
/// scratch and counter stripe — for the pool's whole life, so a wave costs
/// its jobs and its barrier, never a thread.
///
/// One wave runs at a time. Workers claim job indices off one atomic
/// cursor, build the claimed job's control block, drive it and write the
/// result into the job's own slot; the owner claims too, then waits for the
/// helpers to count out. The first panic poisons the wave: the others stop
/// claiming and the payload comes back as `Err`, before any merge. The
/// barrier folds what the wave's tasks buffered into the published stop
/// sets in `(vtime, id, seq)` stamp order — functions of each task's own
/// history, so schedule-invariant (`STOPSET_WAVE`).
pub struct WavePool<'scope, 'env, 'a, 's> {
    shared: &'env Shared<'a, 's>,
    scope: &'scope Scope<'scope, 'env>,
    helpers: Vec<ScopedJoinHandle<'scope, ()>>,
    /// Workers a wave may use, the owner included.
    width: usize,
    /// The owner's scratch.
    sx: Scratch,
}

impl WavePool<'_, '_, '_, '_> {
    /// Run one admission wave of *timed* requests: each job's meter is
    /// anchored at its virtual **arrival time** instead of zero — so a
    /// request admitted at hour 30 has its telemetry spans offset from its
    /// own admission, exactly as if it had arrived at a live service.
    ///
    /// `jobs` must be sorted by `(arrival_ms, id)` with campaign-unique,
    /// increasing ids — the same total order the arrival generator emits.
    /// After the wave barrier `sink` receives every result with its job's
    /// index, in job order, identical at every width; the wave's event
    /// count is returned.
    pub fn run_wave_timed(
        &mut self,
        jobs: &[TimedJob],
        sink: impl FnMut(usize, RevtrResult),
    ) -> std::thread::Result<u64> {
        // Barrier ordinal for open-loop waves: the wave's first arrival
        // (milliseconds) — deterministic and increasing, since the
        // admission layer feeds arrival-sorted waves.
        let ord = jobs.first().map(|j| j.arrival_ms as u64).unwrap_or(0);
        self.run_wave(ord, jobs.iter().copied(), sink)
    }

    fn run_wave(
        &mut self,
        ord: u64,
        jobs: impl Iterator<Item = TimedJob>,
        mut sink: impl FnMut(usize, RevtrResult),
    ) -> std::thread::Result<u64> {
        let shared = self.shared;
        let admitted = {
            let mut wave = shared.wave.write();
            wave.jobs.clear();
            wave.jobs.extend(jobs);
            let admitted = wave.jobs.len();
            if wave.slots.len() < admitted {
                wave.slots.resize_with(admitted, OnceLock::new);
            }
            admitted
        };
        shared.cursor.store(0, Ordering::Relaxed);
        // A wave the owner can finish alone wakes (and starts) no one.
        let helped = self.width > 1 && admitted > 1;
        if helped {
            while self.helpers.len() + 1 < self.width {
                self.helpers.push(self.scope.spawn(|| shared.help()));
            }
            shared.running.store(self.helpers.len(), Ordering::Relaxed);
            shared.epoch.fetch_add(1, Ordering::Release);
            self.helpers.iter().for_each(|h| h.thread().unpark());
        }
        shared.claim(&mut self.sx);
        if helped {
            wait_until(|| shared.running.load(Ordering::Acquire) == 0);
        }
        if shared.poisoned.load(Ordering::Relaxed) {
            let payload = shared.payload.lock().take();
            return Err(
                payload.unwrap_or_else(|| Box::new("an earlier wave of this pool panicked"))
            );
        }
        let sys = shared.sys;
        if sys.wave_barriers() {
            sys.stopset().merge_pending();
        }
        sys.record_engine_resources(ord, admitted);
        let mut wave = shared.wave.write();
        for (i, slot) in wave.slots[..admitted].iter_mut().enumerate() {
            sink(i, slot.take().expect("every admitted job was driven"));
        }
        Ok(shared.events.swap(0, Ordering::Relaxed))
    }
}

impl Drop for WavePool<'_, '_, '_, '_> {
    /// Close the pool: helpers wake, hand their scratches back and exit;
    /// the scope the pool lives in joins them.
    fn drop(&mut self) {
        self.shared.epoch.store(CLOSED, Ordering::Release);
        self.helpers.iter().for_each(|h| h.thread().unpark());
        self.shared.sys.return_scratch(std::mem::take(&mut self.sx));
    }
}

impl<'s> RevtrSystem<'s> {
    /// Run a whole campaign: every `(dst, src)` pair is driven to
    /// completion on a meter starting at virtual zero, `lc.workers` at a
    /// time. With stop sets off the campaign is one wave; with them on (or
    /// hardening, whose quarantine windows are ordinary buffered stop-set
    /// contributions) it is admitted in `STOPSET_WAVE`-sized waves with
    /// a deterministic stop-set merge barrier after each.
    ///
    /// Results come back in input order. A panicking measurement aborts
    /// the campaign and surfaces as `Err` with the panic payload; the
    /// system stays usable.
    pub fn run_campaign(
        &self,
        pairs: &[(Addr, Addr)],
        lc: LoopConfig,
    ) -> std::thread::Result<CampaignOutcome> {
        self.campaign_of(pairs, lc, TimedJob::task)
    }

    /// [`RevtrSystem::run_campaign`] with the jobs' control blocks built by
    /// `task` (tests plant a panicking one).
    fn campaign_of<'a>(
        &'a self,
        pairs: &[(Addr, Addr)],
        lc: LoopConfig,
        task: TaskOf<'a>,
    ) -> std::thread::Result<CampaignOutcome> {
        let wave = if self.wave_barriers() {
            STOPSET_WAVE
        } else {
            usize::MAX
        };
        let mut out = CampaignOutcome {
            results: Vec::with_capacity(pairs.len()),
            events: 0,
        };
        self.pooled(lc, task, |pool| {
            for (ord, admitted) in pairs.chunks(wave).enumerate() {
                let base = out.results.len();
                let jobs = admitted
                    .iter()
                    .enumerate()
                    .map(|(i, &(dst, src))| TimedJob {
                        dst,
                        src,
                        arrival_ms: 0.0,
                        id: base + i,
                        degrade: 0,
                    });
                out.events += pool.run_wave(ord as u64, jobs, |_, r| out.results.push(r))?;
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Open a worker pool for as long as `f` runs: the open-loop entry
    /// point. The caller (the admission layer) owns wave chunking,
    /// shedding and the degradation ladder, and hands each admitted wave
    /// to [`WavePool::run_wave_timed`]; threads started for the first wave
    /// wide enough to share serve every later one and are joined when `f`
    /// returns.
    pub fn with_pool<'a, R>(
        &'a self,
        lc: LoopConfig,
        f: impl FnOnce(&mut WavePool<'_, '_, 'a, 's>) -> R,
    ) -> R {
        self.pooled(lc, TimedJob::task, f)
    }

    fn pooled<'a, R>(
        &'a self,
        lc: LoopConfig,
        task: TaskOf<'a>,
        f: impl FnOnce(&mut WavePool<'_, '_, 'a, 's>) -> R,
    ) -> R {
        let shared = Shared {
            sys: self,
            task,
            wave: RwLock::default(),
            epoch: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
            caller: std::thread::current(),
        };
        std::thread::scope(|scope| {
            f(&mut WavePool {
                shared: &shared,
                scope,
                helpers: Vec::new(),
                // Oversubscribing the host's cores only adds scheduler
                // churn.
                width: lc.workers.min(self.cores()).max(1),
                sx: self.take_scratch(),
            })
        })
    }

    /// Whether waves end in a stop-set merge. Hardened campaigns need one
    /// even with stop sets off: quarantine windows are ordinary (buffered)
    /// stop-set contributions and only become visible at a merge.
    pub(crate) fn wave_barriers(&self) -> bool {
        self.config().use_stop_sets || self.config().harden
    }

    /// Record the engine's own ledger plus a full subsystem snapshot at a
    /// wave barrier (no-op unless profiling is enabled). The wave just
    /// drained admitted `admitted` control blocks — a peak fixed by the
    /// admission plan, not by how many workers the host gave it.
    fn record_engine_resources(&self, ord: u64, admitted: usize) {
        let tele = self.prober().telemetry();
        if !tele.profiling() {
            return;
        }
        tele.resource_record(
            "engine.control_blocks",
            ord,
            (admitted * task_footprint_bytes()) as u64,
        );
        self.snapshot_resources(ord);
    }

    /// The one way a reverse traceroute executes: step its control block
    /// to completion, on the scratch its driver lends it, behind a panic
    /// fence. Returns the result with its event count. After an `Err` the
    /// scratch holds whatever the interrupted step left: drop it.
    pub(crate) fn drive<'a>(
        &'a self,
        mut task: MeasureTask<'a>,
        sx: &mut Scratch,
    ) -> std::thread::Result<(RevtrResult, u64)> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut events = 0u64;
            loop {
                events += 1;
                if let Some(r) = task.step(self, sx) {
                    return (r, events);
                }
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use revtr_atlas::select_atlas_probes;
    use revtr_netsim::{Sim, SimConfig};
    use revtr_probing::Prober;
    use revtr_vpselect::{Heuristics, IngressDb};

    #[test]
    fn control_block_stays_within_its_footprint() {
        // `engine.control_blocks` and the benchmark's `core.task_bytes`
        // price a wave at this much per admitted request.
        assert!(
            task_footprint_bytes() <= 808,
            "the control block grew to {} bytes",
            task_footprint_bytes()
        );
    }

    /// A tiny system with stop sets on (so campaigns run in waves) and one
    /// registered source, plus `n` pairs toward it.
    fn tiny_system(sim: &Sim, n: usize) -> (RevtrSystem<'_>, Vec<(Addr, Addr)>) {
        let prober = Prober::new(sim);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
        let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
        let pool = select_atlas_probes(sim, 60, 9);
        let mut cfg = EngineConfig::revtr2();
        cfg.atlas_size = 30;
        cfg.use_stop_sets = true;
        let src = vps[0];
        let dsts: Vec<Addr> = (sim.topo().prefixes.iter())
            .flat_map(|p| sim.host_addrs(p.id).take(4))
            .filter(|&d| d != src)
            .collect();
        assert!(dsts.len() >= n, "only {} destinations", dsts.len());
        let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
        sys.register_source(src);
        (sys, dsts[..n].iter().map(|&d| (d, src)).collect())
    }

    #[test]
    fn poisoned_job_yields_err_and_leaves_system_usable() {
        let sim = Sim::build(SimConfig::tiny(), 31);
        const PLANTED: usize = 2 * STOPSET_WAVE + 7;
        fn planted<'a>(job: &TimedJob) -> MeasureTask<'a> {
            let mut t = job.task();
            if job.id == PLANTED {
                // Already `Done`: stepping it is the engine's own invariant
                // panic, raised inside `drive`'s fence.
                t.phase = Phase::Done;
            }
            t
        }

        for workers in [1usize, 4] {
            // Five waves; the planted job sits in the third.
            let (sys, pairs) = tiny_system(&sim, 5 * STOPSET_WAVE);
            let first = sys.measure(pairs[0].0, pairs[0].1);
            // `Err` comes back — so every helper was joined — before the
            // poisoned wave's merge: what its finished jobs buffered is
            // still pending.
            let out = sys.campaign_of(&pairs, LoopConfig { workers }, planted);
            assert!(out.is_err(), "w{workers}: poisoned campaign returned Ok");
            let unmerged = sys.stopset().approx_bytes().total();
            sys.stopset().merge_pending();
            assert!(
                sys.stopset().approx_bytes().total() > unmerged,
                "w{workers}: merged"
            );

            // Still usable, both ways in.
            assert_eq!(sys.measure(pairs[0].0, pairs[0].1).status, first.status);
            let outcome = sys
                .run_campaign(&pairs, LoopConfig { workers: 4 })
                .expect("clean campaign after a poisoned one");
            assert_eq!(outcome.results.len(), pairs.len());
            assert_eq!(outcome.results[0].status, first.status);
        }
    }

    #[test]
    fn waves_the_caller_can_finish_alone_start_no_thread() {
        let sim = Sim::build(SimConfig::tiny(), 31);
        let (sys, pairs) = tiny_system(&sim, 2);
        let job = |id: usize| TimedJob {
            dst: pairs[id].0,
            src: pairs[id].1,
            arrival_ms: 0.0,
            id,
            degrade: 0,
        };
        sys.with_pool(LoopConfig { workers: 4 }, |pool| {
            // An empty campaign and a one-job campaign, as waves.
            assert_eq!(pool.run_wave_timed(&[], |_, _| ()).expect("ran"), 0);
            let mut got = 0;
            let events = pool.run_wave_timed(&[job(0)], |_, _| got += 1);
            assert!(events.expect("ran") > 0);
            assert_eq!(got, 1);
            assert!(pool.helpers.is_empty(), "a lone job started a thread");
            // Helpers start with the first wave that has work to share
            // (on a host with cores to run them) and serve the next.
            for _ in 0..2 {
                pool.run_wave_timed(&[job(0), job(1)], |_, _| ())
                    .expect("ran");
                assert_eq!(pool.helpers.len(), pool.width - 1);
            }
        });
        // One worker never starts any.
        sys.with_pool(LoopConfig::default(), |pool| {
            pool.run_wave_timed(&[job(0), job(1)], |_, _| ())
                .expect("ran");
            assert!(pool.helpers.is_empty());
        });
    }
}
