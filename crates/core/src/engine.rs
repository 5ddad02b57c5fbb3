//! The measurement engine: one reverse traceroute is one function.
//!
//! `RevtrSystem::drive` runs the loop of Fig. 2 straight through: the
//! destination check (the direct RR ping the first record-route step
//! reads, a plain ping only where that goes unanswered or no RR step
//! follows), then per hop the atlas intersection, the campaign stop sets,
//! the record-route step (direct, then spoofed batches from the plan's
//! VPs, then the optional Appx. E re-probe), the timestamp step
//! (revtr 1.0) and the symmetry assumption. The request's own state is a
//! plain `Request`; the path it stitches lives in the driver's scratch
//! (`crate::scratch`). Spoofed-batch waits are virtual — they cost no wall
//! time — so a request never yields: it runs to completion on the thread
//! that claimed it.
//!
//! [`RevtrSystem::measure`] drives one request inline;
//! [`RevtrSystem::run_campaign`] and the service's open loop
//! ([`WavePool::run_wave_timed`]) run their waves on one [`WavePool`],
//! whose workers live as long as the campaign, claim jobs off an atomic
//! cursor and drive each, behind a panic fence, on the one scratch a
//! worker holds throughout.
//!
//! A request carries its own [`Meter`] — virtual time from the job's
//! origin and a probe tally from zero — and lends it to every probe it
//! sends, so its duration, probe delta, span offsets and stop-set stamps
//! read its own charges and nothing else. Which worker runs which job is
//! up to the OS; campaign *results* are not, because a measurement's
//! outcome depends only on its own probe sequence — a probe's nonce is a
//! function of the packet and its instant on the request's meter — and on
//! stop-set evidence published at earlier wave barriers. Two couplings
//! across requests remain: route churn (the shared clock's flush points
//! follow the schedule) and, under per-packet load balancing, the
//! measurement cache (a hit replays whichever request measured the key
//! first, down to the path its probe was balanced onto). The metamorphic
//! suite pins the invariance with churn off and either one of load
//! balancing or the cache off.

use crate::config::{SymmetryPolicy, MAX_PATH_HOPS};
use crate::result::{
    Evidence, Path, ProbeDelta, RevtrHop, RevtrResult, RevtrStats, Status, StitchEnd,
};
use crate::scratch::{novel, on_path, Scratch};
use crate::system::{Books, Ladder, RevtrSystem, RrFound, RrHints, RrObserved};
use parking_lot::{Mutex, RwLock};
use revtr_atlas::SourceAtlas;
use revtr_netsim::pool::{self, Crew, Pool};
use revtr_netsim::{Addr, PrefixId};
use revtr_probing::{Contribution, DirectVerdict, Meter, Note, ProbeLoss, RequestScope, StoredRr};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// How wide a wave runs. Campaign *results* are invariant to it when route
/// churn is off and either per-packet load balancing or the measurement
/// cache is off; otherwise which worker drives which job can change what
/// each request sees (see [`LoopConfig::parallel`]).
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
    /// to [`LoopConfig::default`] when route churn is off and either
    /// per-packet load balancing or the measurement cache is off. Churn
    /// flushes at points the schedule picks; a cache hit replays whichever
    /// request measured the key first, and under load balancing that
    /// request's nonce picked the reply's path. Cache and probe *counters*
    /// are not reproducible even then (two workers can miss the same cache
    /// key and both probe), which is why golden-pinned paths use the serial
    /// default.
    pub fn parallel() -> LoopConfig {
        LoopConfig { workers: 8 }
    }
}

/// What a campaign run produced, with the engine's own accounting.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-pair results, in input order.
    pub results: Vec<RevtrResult>,
    /// Total events, summed over the campaign's measurements (see
    /// `RevtrSystem::drive` for where a request charges one). Identical
    /// at every width.
    pub events: u64,
}

/// One admitted request of an open-loop wave: a measurement plus the
/// virtual arrival time and degradation level the admission layer fixed
/// for it. Consumed by [`WavePool::run_wave_timed`]; a campaign's pairs run
/// as the same thing, arriving at virtual zero at full service, and
/// [`RevtrSystem::measure`] as request 0 of a one-pair campaign.
#[derive(Clone, Copy, Debug)]
pub struct TimedJob {
    /// Reverse traceroute destination.
    pub dst: Addr,
    /// Registered source the path is stitched toward.
    pub src: Addr,
    /// Virtual arrival time in milliseconds since campaign start: where
    /// the request's meter starts.
    pub arrival_ms: f64,
    /// Campaign-unique request id (stop-set contribution stamp); callers
    /// use the global arrival index.
    pub id: usize,
    /// Degradation-ladder level for this request (0 = full service; 1 =
    /// spoofed batches capped at one probe; 2+ = cache, stop-set and atlas
    /// evidence only, no new RR probes, so the destination check is a
    /// plain ping).
    pub degrade: u8,
}

/// Size in bytes of one admitted measurement's state (the path it is
/// stitching sits in its driver's scratch, not here). The
/// `engine.control_blocks` ledger prices a wave at this much per admitted
/// request.
pub fn task_footprint_bytes() -> usize {
    std::mem::size_of::<Request>()
}

/// One reverse traceroute in flight: what it measures toward, its books,
/// and where the stitch stands. The path itself — each hop with its
/// evidence — is assembled in the driver's [`Scratch`] and sealed into one
/// block at `finish`.
struct Request {
    dst: Addr,
    src: Addr,
    src_prefix: Option<PrefixId>,
    atlas: Arc<SourceAtlas>,
    req: RequestScope,
    /// The request's own clock and probe tally: virtual time from
    /// `origin_ms`, probes and events from zero, charged by every probe
    /// it sends and every event it takes.
    meter: Meter,
    origin_ms: f64,
    stats: RevtrStats,
    /// The hop the stitch continues from.
    cur: Addr,
    /// How many TTLs from the source `cur` sits, when the previous
    /// symmetry step just measured it (`cur` is the hop that step's probes
    /// found); 0 once `cur` moved any other way.
    chain_dist: u8,
    /// Campaign request id — the middle component of stop-set
    /// contribution stamps (0 on the serial [`RevtrSystem::measure`]
    /// path, the pair index under [`RevtrSystem::run_campaign`]).
    id: usize,
    /// Per-request stop-set contribution sequence (stamp tie-break).
    cseq: u64,
    /// Degradation-ladder level assigned at admission, fixed for the
    /// request's lifetime — the admission layer, not the engine, moves the
    /// ladder.
    degrade: u8,
}

impl Request {
    /// A request at the starting line: its source's atlas resolved, its
    /// meter anchored at the job's arrival, its telemetry scope open. Does
    /// not probe.
    fn new(sys: &RevtrSystem<'_>, job: &TimedJob, sx: &mut Scratch) -> Request {
        sx.hops.clear();
        let meter = Meter::at(job.arrival_ms);
        Request {
            dst: job.dst,
            src: job.src,
            atlas: sys.atlas(job.src),
            src_prefix: sys.prober().host_prefix(job.src),
            // Telemetry request scope (inert unless the prober carries an
            // enabled handle). The origin is this request's virtual time,
            // so span offsets are invariant to concurrent measurements'
            // advances.
            req: (sys.prober().telemetry()).request_in(
                &mut sx.scope,
                job.dst.0,
                job.src.0,
                meter.ms,
            ),
            meter,
            origin_ms: job.arrival_ms,
            stats: RevtrStats::default(),
            cur: job.dst,
            chain_dist: 0,
            id: job.id,
            cseq: 0,
            degrade: job.degrade,
        }
    }

    /// Fig. 2, start to finish; returns the result with its event count.
    fn run(mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> (RevtrResult, u64) {
        self.event(sys);
        // The destination must answer something. The check is the direct
        // RR ping the first RR step sends anyway: any echo reply proves D
        // alive, usable stamps or not — a fresh cached one too, as the
        // cache serves it to the RR step — and that step reads the
        // observation instead of sending it again. A destination that
        // drops RR-option packets, or whose RR ping an option filter
        // dropped, gets a plain ping; one whose RR ping is lost to faults
        // past the retry budget is unresponsive, as a lost ping is. The
        // check is the plain ping where no RR step follows: at degradation
        // L2+ (no new RR probes) and inside the source's own prefix.
        let (src, dst) = (self.src, self.dst);
        let rr_check = self.degrade < 2 && !sys.reached(dst, src, self.src_prefix);
        let mut t = self.books();
        let st = t.enter("destination_probe");
        let mut direct = rr_check.then(|| sys.prober().rr_ping_observed(t.meter, src, dst));
        let fallback = !matches!(direct, Some(Ok(_) | Err(ProbeLoss::Transient)));
        let answered = match direct {
            Some(Ok(_)) => true,
            Some(Err(ProbeLoss::Transient)) => false,
            _ => sys.prober().ping_metered(t.meter, src, dst).is_some(),
        };
        let fields = [
            ("answered", u64::from(answered)),
            ("fallback", u64::from(fallback)),
        ];
        t.exit(st, &fields);
        if !answered {
            return self.finish(sys, sx, Status::Unresponsive, StitchEnd::Unresponsive);
        }
        sx.hops
            .push(RevtrHop::new(Some(dst), Evidence::Destination));

        let mut iters = 0;
        loop {
            self.event(sys);
            if iters == MAX_PATH_HOPS {
                return self.finish(sys, sx, Status::Stuck, StitchEnd::HopBudget);
            }
            iters += 1;
            if sys.reached(self.cur, self.src, self.src_prefix) {
                return self.finish(sys, sx, Status::Complete, StitchEnd::ReachedSource);
            }
            if self.atlas_suffix(sys, sx) {
                return self.finish(sys, sx, Status::Complete, StitchEnd::AtlasSuffix);
            }
            // The first RR step is at D: it reads the check's RR ping.
            let found = self.record_route(sys, sx, direct.take());
            self.event(sys);
            if self.adopt(sx, found) {
                continue;
            }
            if sys.config().use_timestamp {
                self.event(sys);
                if self.ts(sys, sx) {
                    continue;
                }
            }
            self.event(sys);
            if let Some((status, end)) = self.symmetry(sys, sx) {
                return self.finish(sys, sx, status, end);
            }
        }
    }

    /// Charge one engine event: where the request starts, at each loop
    /// head and before each technique that follows the RR step — outside
    /// every stage span. The RR step charges its spoofed rounds itself,
    /// inside its spans, so `rr_step` and `rr_spoofed` carry every event
    /// a stage cost stack shows.
    fn event(&mut self, sys: &RevtrSystem<'_>) {
        sys.prober().count_events(&mut self.meter, 1);
    }

    /// Seal the result: duration and probe delta are what the request's
    /// meter read, exactly its own charges under any scheduling. The path
    /// is flagged for suspicious gaps in the scratch and leaves it as one
    /// block — the only allocation a measurement makes for itself — and
    /// the telemetry scope's buffers go back into it.
    fn finish(
        mut self,
        sys: &RevtrSystem<'_>,
        sx: &mut Scratch,
        status: Status,
        end: StitchEnd,
    ) -> (RevtrResult, u64) {
        self.stats.duration_s = (self.meter.ms - self.origin_ms) / 1000.0;
        self.stats.probes = ProbeDelta::from_snapshot(&self.meter.tally);
        self.req.finish(status.label(), self.meter.ms);
        self.req.release(&mut sx.scope);
        sys.flag_suspicious(&mut sx.hops);
        let r = RevtrResult {
            dst: self.dst,
            src: self.src,
            status,
            hops: Path::new(&sx.hops),
            stats: self.stats,
            end,
        };
        (r, self.meter.tally.events)
    }

    /// Buffer a stop-set contribution stamped with this request's own
    /// virtual time and `(request id, sequence)` — a pure function of its
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

    /// Step 1: does `cur` intersect the source's atlas? Then the atlas
    /// trace's suffix completes the path.
    fn atlas_suffix(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> bool {
        let atlas = Arc::clone(&self.atlas);
        let atlas_span = self.books().enter("atlas_intersection");
        let Some(inter) = sys.lookup_intersection(self.src, &atlas, self.cur) else {
            self.books().exit(atlas_span, &[("hit", 0)]);
            return false;
        };
        sys.note_intersection_usage(self.src, inter.trace);
        self.stats.intersected_trace = Some(inter.trace);
        self.stats.intersected_hop = Some(inter.hop);
        self.stats.intersected_trace_age_h =
            Some(atlas.trace_age_hours(inter, sys.prober().now_hours()));
        let t = &atlas.traces[inter.trace];
        for (i, h) in atlas.suffix(inter).iter().enumerate() {
            if i == 0 && *h == Some(self.cur) {
                continue; // already in the path
            }
            self.stats.atlas_hops += 1;
            let evidence = if i == 0 {
                // An alias join: this hop's address differs from `cur` but
                // names the same router (or /30 link).
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
        true
    }

    /// Step 2: the next reverse hops from record route. An earlier
    /// request's evidence in the campaign stop sets answers first; failing
    /// that, the RR step probes — its hints taken from the stop sets and
    /// the degradation ladder — publishes what it learned, and, in the
    /// Appx. E mode, re-probes the first hop it revealed. `direct` is the
    /// direct RR ping to `cur` the request already sent, if any.
    fn record_route(
        &mut self,
        sys: &RevtrSystem<'_>,
        sx: &mut Scratch,
        direct: Option<RrObserved>,
    ) -> Option<RrFound> {
        // Campaign stop sets, everything under one read lock: reuse an
        // earlier request's reverse-hop evidence at this (source, router)
        // before spending any probes — the Doubletree-style backward stop.
        // The stored hops are re-filtered against *this* path, and
        // adoption replays the original provenance, exactly like a
        // measurement-cache hit. Failing that, collect the hints the RR
        // step opens with.
        let mut hints = RrHints {
            direct,
            ..RrHints::default()
        };
        if sys.config().use_stop_sets {
            let stop = sys.stopset().consult();
            let ss = self.books().enter("stopset_backward");
            let hit = stop.backward(self.src, self.cur);
            let reused = hit.as_ref().map_or(0, |(s, _)| s.hops.len() as u64);
            self.books()
                .exit(ss, &[("hit", u64::from(hit.is_some())), ("reused", reused)]);
            if let Some((stored, spoofed)) = hit {
                let new = novel(&sx.hops, &stored.hops);
                if !new.is_empty() {
                    self.stats.stopset_reused_steps += 1;
                    return Some((new, stored.provenance, spoofed));
                }
            }
            let verdict = stop.direct_futile(self.src, self.cur);
            hints.skip_direct = verdict.is_some();
            hints.silent = verdict == Some(DirectVerdict::Silent);
            // A skipped ladder has no use for its winner or its futility
            // (and consulting them would inflate the hit counters).
            hints.skip_spoofed = !hints.silent && stop.spoof_futile(self.cur);
            if !hints.skip_spoofed && !hints.silent {
                hints.winner = sys
                    .stop_plan_key(self.cur)
                    .and_then(|plan| stop.winner(plan));
            }
        }
        // Degradation ladder (admission control's brownout levels, set
        // per timed job): L1 shrinks the spoofed batch to one probe; L2+
        // additionally answers from cache/stop-set/atlas evidence only —
        // no new RR probes at all. Publication below reads the skips, so a
        // degraded step never publishes false futility into the stop sets,
        // the same guard the stop-set hints already need.
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

        let (cur, src) = (self.cur, self.src);
        let (found, ladder) = sys.rr_step(cur, src, sx, &mut self.books(), &hints);
        if sys.config().use_stop_sets {
            self.publish(sys, found.as_ref(), &hints, ladder);
        }
        if sys.config().verify_dbr {
            self.verify(sys, sx, found.as_ref());
        }
        found
    }

    /// Publish what an RR step learned at `cur` to the campaign stop sets
    /// (buffered; visible to other requests after the next merge barrier).
    fn publish(
        &mut self,
        sys: &RevtrSystem<'_>,
        found: Option<&RrFound>,
        hints: &RrHints,
        ladder: Ladder,
    ) {
        let (src, cur) = (self.src, self.cur);
        // A skipped probe republishes nothing: the skip came from a hint
        // (or the degradation ladder), not from a measurement. Under a
        // futility hint the step may still read the destination check's
        // probe (it is paid for); its miss repeats what the stop sets
        // already hold, so nothing is published for it either.
        let silent = ladder == Ladder::Silent;
        let direct_futile = Note::DirectFutile { src, cur, silent };
        match found {
            Some(&(rev, prov, spoofed)) => {
                let stored = StoredRr {
                    hops: rev,
                    provenance: prov,
                };
                let backward = Note::Backward {
                    src,
                    cur,
                    spoofed,
                    stored,
                };
                self.contribute(sys, backward);
                if spoofed {
                    if let Some(plan) = sys.stop_plan_key(cur) {
                        let vp = prov.sender;
                        self.contribute(sys, Note::Winner { plan, vp });
                    }
                    // The spoofed ladder won, so the direct probe (when
                    // actually sent) revealed nothing.
                    if !hints.skip_direct {
                        self.contribute(sys, direct_futile);
                    }
                }
            }
            None => {
                if !hints.skip_direct {
                    self.contribute(sys, direct_futile);
                }
                // An empty-handed step with the ladder run exhausted the
                // *full* ladder (a solo winner falls back to the full
                // queues before concluding). Only a ladder that saw *zero
                // usable replies* (no reply located the router's stamp,
                // whichever ingress it crossed) marks the router
                // spoof-futile: a reply that was usable but merely not
                // novel for this request's path is request-specific
                // evidence, not proof the router ignores spoofed RR
                // probes. A ladder skipped for a router silent to the
                // source publishes none either: that verdict is the
                // source's, carried by the direct futility note.
                if ladder == (Ladder::Ran { usable_seen: false }) {
                    self.contribute(sys, Note::SpoofFutile { cur });
                }
            }
        }
    }

    /// Appx. E optional mode: re-probe the first revealed hop and confirm
    /// the chain continues the same way, flagging the measurement when it
    /// does not. The comparison is against the *immediate* next hop: a
    /// source-dependent router sends the two probes' replies down
    /// different links right away, and a weaker "appears anywhere later"
    /// check misses detours that reconverge within a hop or two.
    fn verify(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch, found: Option<&RrFound>) {
        let Some(&[first, expected, ..]) = found.map(|(rev, _, _)| &rev[..]) else {
            return;
        };
        if first.is_private() {
            return;
        }
        let vspan = self.books().enter("rr_verify");
        // The verification re-probe neither consults nor feeds the stop
        // sets: its whole point is an independent re-measurement.
        let src = self.src;
        let (v, _) = sys.rr_step(first, src, sx, &mut self.books(), &RrHints::default());
        if let Some(&h0) = v.as_ref().and_then(|(h, _, _)| h.first()) {
            if h0 != expected && !sys.hop_match(h0, expected) {
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
    }

    /// Adopt what the RR step found; true when the stitch moved on to its
    /// last routable hop.
    fn adopt(&mut self, sx: &mut Scratch, found: Option<RrFound>) -> bool {
        let Some((rev, prov, spoofed)) = found else {
            return false;
        };
        let evidence = if spoofed {
            Evidence::SpoofedRecordRoute { prov }
        } else {
            Evidence::RecordRoute { prov }
        };
        sx.hops
            .extend(rev.iter().map(|&h| RevtrHop::new(Some(h), evidence)));
        // Continue from the last routable hop.
        let Some(&next) = rev.iter().rev().find(|a| !a.is_private()) else {
            return false;
        };
        self.cur = next;
        self.chain_dist = 0;
        true
    }

    /// Step 3 (revtr 1.0): timestamp adjacency tests; true when one
    /// confirmed the next hop.
    fn ts(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> bool {
        let ts_span = self.books().enter("ts_step");
        let adj = sys.ts_step(&mut self.meter, self.cur, self.src, &sx.hops);
        let found = u64::from(adj.is_some());
        self.books().exit(ts_span, &[("found", found)]);
        let Some(adj) = adj else {
            return false;
        };
        let evidence = Evidence::Timestamp {
            tested_from: self.cur,
        };
        sx.hops.push(RevtrHop::new(Some(adj), evidence));
        self.cur = adj;
        self.chain_dist = 0;
        true
    }

    /// Step 4: measure the last link of the forward path to `cur` and
    /// assume it symmetric, or end the request — stuck, or aborted at an
    /// interdomain link under the revtr 2.0 trust policy.
    fn symmetry(&mut self, sys: &RevtrSystem<'_>, sx: &mut Scratch) -> Option<(Status, StitchEnd)> {
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
            return Some((Status::Stuck, StitchEnd::Stuck));
        };
        if on_path(&sx.hops, d.penult) {
            return Some((Status::Stuck, StitchEnd::Stuck));
        }
        if d.interdomain && policy == SymmetryPolicy::IntradomainOnly {
            let end = StitchEnd::AbortInterdomain {
                cur: self.cur,
                penult: d.penult,
                cur_as: d.cur_as,
                penult_as: d.penult_as,
            };
            return Some((Status::AbortedInterdomain, end));
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
        None
    }

    /// This request's books, lent for a stage.
    fn books(&mut self) -> Books<'_> {
        Books {
            stats: &mut self.stats,
            req: &mut self.req,
            meter: &mut self.meter,
        }
    }
}

/// Where the symmetry step starts its TTL probing when nothing measured
/// says better: the paper-era Internet's median forward distance (between
/// two equally likely starts the lower wins — falling short by `k` TTLs
/// costs one packet less than overshooting by `k`).
const COLD_START_TTL: u8 = 10;

/// Campaign wave width when stop sets are enabled: requests admitted per
/// merge barrier. Between barriers requests only *buffer* stop-set
/// contributions, so every request in a wave sees exactly the evidence
/// published by earlier waves — a pure function of the input order, never
/// of worker scheduling. Smaller waves share evidence sooner; larger ones
/// expose more concurrency. 64 keeps the pool busy while still letting a
/// 2000-request campaign reuse evidence ~30 times over.
const STOPSET_WAVE: usize = 64;

/// Runs one claimed job to its result and event count:
/// `RevtrSystem::drive` (tests plant a panicking one).
type Driver<'s> = fn(&RevtrSystem<'s>, &TimedJob, &mut Scratch) -> (RevtrResult, u64);

/// The wave being run: written by the pool's owner between waves, read by
/// every worker during one.
#[derive(Default)]
struct Wave {
    jobs: Vec<TimedJob>,
    /// One slot per job, by job index; grown to the widest wave and
    /// emptied at each barrier.
    slots: Vec<OnceLock<RevtrResult>>,
}

/// What a campaign pool's workers share: the wave the owner wrote, and the
/// cursor workers claim job indices off. The pool's epoch and barrier are
/// [`revtr_netsim::pool`]'s; the wave's results are visible to the owner
/// once the barrier is passed. The rest is `Relaxed`: an index, a tally and
/// a stop flag publish nothing.
struct Shared<'a, 's> {
    sys: &'a RevtrSystem<'s>,
    drive: Driver<'s>,
    /// Never contended: the owner writes only while every helper is
    /// between waves, and workers read only during one. The lock is how
    /// safe code says so; each worker takes it once per wave.
    wave: RwLock<Wave>,
    /// Next unclaimed job index of the wave.
    cursor: AtomicUsize,
    /// Events of the wave's finished jobs.
    events: AtomicU64,
    /// A job panicked: stop claiming.
    poisoned: AtomicBool,
    /// The first panic's payload.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared<'_, '_> {
    /// Claim jobs off the cursor until the wave is drained or poisoned,
    /// driving each on `sx` behind a panic fence and writing its result
    /// into the job's slot.
    fn claim(&self, sx: &mut Scratch) {
        let wave = self.wave.read();
        let mut events = 0;
        while !self.poisoned.load(Ordering::Relaxed) {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = wave.jobs.get(i) else { break };
            let fenced = std::panic::AssertUnwindSafe(|| (self.drive)(self.sys, job, sx));
            match std::panic::catch_unwind(fenced) {
                Ok((r, charged)) => {
                    events += charged;
                    let _ = wave.slots[i].set(r);
                }
                Err(payload) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    self.payload.lock().get_or_insert(payload);
                    // Whatever the interrupted request left is not reused.
                    *sx = Scratch::default();
                }
            }
        }
        self.events.fetch_add(events, Ordering::Relaxed);
    }
}

impl Crew for Shared<'_, '_> {
    type Local = Scratch;

    fn hire(&self) -> Scratch {
        self.sys.take_scratch()
    }

    fn work(&self, sx: &mut Scratch) {
        self.claim(sx);
    }

    fn retire(&self, sx: Scratch) {
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
/// cursor, drive the claimed job and write the result into the job's own
/// slot; the owner claims too, then waits for the
/// helpers to count out. The first panic poisons the wave: the others stop
/// claiming and the payload comes back as `Err`, before any merge. The
/// barrier folds what the wave's requests buffered into the published
/// stop sets in `(vtime, id, seq)` stamp order — functions of each
/// request's own history, so schedule-invariant (`STOPSET_WAVE`).
pub struct WavePool<'scope, 'env, 'a, 's> {
    pool: Pool<'scope, 'env, Shared<'a, 's>>,
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
        let shared = self.pool.crew();
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
        let sx = &mut self.sx;
        self.pool.wave(admitted > 1, |shared| shared.claim(sx));
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
    /// Hand the owner's scratch back; the pool then closes, and the scope
    /// it lives in joins the helpers once they have handed theirs back.
    fn drop(&mut self) {
        let sys = self.pool.crew().sys;
        sys.return_scratch(std::mem::take(&mut self.sx));
    }
}

impl<'s> RevtrSystem<'s> {
    /// Run a whole campaign: every `(dst, src)` pair is driven to
    /// completion on a meter starting at virtual zero, `lc.workers` at a
    /// time. With stop sets off the campaign is one wave; with them on it
    /// is admitted in `STOPSET_WAVE`-sized waves with a deterministic
    /// stop-set merge barrier after each.
    ///
    /// Results come back in input order. A panicking measurement aborts
    /// the campaign and surfaces as `Err` with the panic payload; the
    /// system stays usable.
    pub fn run_campaign(
        &self,
        pairs: &[(Addr, Addr)],
        lc: LoopConfig,
    ) -> std::thread::Result<CampaignOutcome> {
        self.campaign_of(pairs, lc, RevtrSystem::drive)
    }

    /// [`RevtrSystem::run_campaign`] with each job run by `drive`.
    fn campaign_of(
        &self,
        pairs: &[(Addr, Addr)],
        lc: LoopConfig,
        drive: Driver<'s>,
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
        self.pooled(lc, drive, |pool| {
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
        self.pooled(lc, RevtrSystem::drive, f)
    }

    fn pooled<'a, R>(
        &'a self,
        lc: LoopConfig,
        drive: Driver<'s>,
        f: impl FnOnce(&mut WavePool<'_, '_, 'a, 's>) -> R,
    ) -> R {
        let shared = Shared {
            sys: self,
            drive,
            wave: RwLock::default(),
            cursor: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
        };
        // Oversubscribing the host's cores only adds scheduler churn.
        let width = lc.workers.min(self.cores());
        pool::scoped(shared, width, |pool| {
            f(&mut WavePool {
                pool,
                sx: self.take_scratch(),
            })
        })
    }

    /// Whether waves end in a stop-set merge.
    pub(crate) fn wave_barriers(&self) -> bool {
        self.config().use_stop_sets
    }

    /// Record the engine's own ledger plus a full subsystem snapshot at a
    /// wave barrier (no-op unless profiling is enabled). The wave just
    /// drained admitted `admitted` requests — a peak fixed by the
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

    /// The one way a reverse traceroute executes, on the scratch its
    /// driver lends it: the destination check — the direct RR ping the
    /// first RR step reads instead of sending, with a plain ping only where
    /// it goes unanswered, at degradation L2+ or inside the source's prefix
    /// — then the stitching loop (Fig. 2) until the path reaches the
    /// source, stalls, or runs out of hop budget. Returns the result with
    /// its event count — one event where the request starts, one at each
    /// loop head, one per spoofed round (the primary RR step's and the
    /// Appx. E re-probe's), one as each RR step concludes (a stop-set
    /// adoption included), one per timestamp step and one per symmetry
    /// step.
    pub(crate) fn drive(&self, job: &TimedJob, sx: &mut Scratch) -> (RevtrResult, u64) {
        Request::new(self, job, sx).run(self, sx)
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
            task_footprint_bytes() <= 312,
            "the request state grew to {} bytes",
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
        fn planted(sys: &RevtrSystem<'_>, job: &TimedJob, sx: &mut Scratch) -> (RevtrResult, u64) {
            // Raised inside the pool's panic fence.
            assert_ne!(job.id, PLANTED, "planted panic");
            sys.drive(job, sx)
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
    fn the_hold_path_survives_loss_retry_budgets_and_degrade_levels() {
        // 15 % transient loss under retry budgets {1, 3} and degrade levels
        // {0, 1, 2}, stop sets on (so solo winners get held too): every
        // request ends with a status, a held VP goes out at most
        // TRANSIENT_STALL_BUDGET + 1 times a pick, and the requests'
        // batches add up to the collection timeouts the prober charged.
        use crate::scratch::Slot;
        use crate::system::TRANSIENT_STALL_BUDGET;
        use revtr_netsim::FaultConfig;
        use revtr_probing::{RetryPolicy, Telemetry};

        let mut sim_cfg = SimConfig::tiny();
        sim_cfg.faults = FaultConfig::lossy(0.15);
        let sim = Sim::build(sim_cfg, 38);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
        let dests: Vec<Addr> = (prefixes.iter())
            .filter_map(|&p| (sim.host_addrs(p)).find(|&a| sim.behavior().host_rr_responsive(a)))
            .collect();
        let mut held = 0;
        for attempts in [1, 3] {
            let tele = Telemetry::enabled();
            let prober = (Prober::new(&sim).with_telemetry(tele.clone()))
                .with_retry_policy(RetryPolicy::uniform(attempts));
            let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
            let mut cfg = EngineConfig::revtr2();
            cfg.atlas_size = 20;
            cfg.use_stop_sets = true;
            let sys = RevtrSystem::new(
                prober,
                cfg,
                vps.clone(),
                ingress,
                select_atlas_probes(&sim, 120, 9),
            );
            for &src in &vps[..3] {
                sys.register_source(src);
            }
            let timeouts = || tele.metrics().counter("probing.batch.timeouts");
            for degrade in 0..=2u8 {
                let before = timeouts();
                let mut batches = 0;
                let mut sx = Scratch::default();
                for (id, &dst) in dests.iter().enumerate() {
                    let job = TimedJob {
                        dst,
                        src: vps[id % 3],
                        arrival_ms: 0.0,
                        id,
                        degrade,
                    };
                    sx.sent.clear();
                    let (r, _) = sys.drive(&job, &mut sx);
                    let arm = format!("attempts {attempts}, L{degrade}, {dst}");
                    assert_eq!((r.dst, r.src), (job.dst, job.src), "{arm}");
                    assert!(!r.status.label().is_empty(), "{arm}");
                    batches += u64::from(r.stats.batches);
                    // A VP goes out fresh (0 stalls) once per time the
                    // ladder picks it — twice for a solo winner that falls
                    // back to its queue — and is then held at most the
                    // budget's re-batches.
                    for ladder in &sx.sent {
                        for slot in ladder {
                            assert!(slot.stalls <= TRANSIENT_STALL_BUDGET, "{arm}: {slot:?}");
                            let same = |s: &&Slot| {
                                (s.vp, s.expected_ingress) == (slot.vp, slot.expected_ingress)
                            };
                            let sent = ladder.iter().filter(same).count() as u32;
                            let picked =
                                ladder.iter().filter(same).filter(|s| s.stalls == 0).count() as u32;
                            assert!(
                                sent <= picked * (TRANSIENT_STALL_BUDGET + 1),
                                "{arm}: {slot:?} went out {sent} times for {picked} picks"
                            );
                            held += usize::from(slot.stalls > 0);
                        }
                    }
                }
                sys.stopset().merge_pending();
                assert_eq!(
                    batches,
                    timeouts() - before,
                    "attempts {attempts}, L{degrade}: the requests' batches are not the prober's timeouts"
                );
            }
        }
        assert!(held > 0, "no VP was held: the arm is vacuous");
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
            assert_eq!(pool.pool.helpers(), 0, "a lone job started a thread");
            // Helpers start with the first wave that has work to share
            // (on a host with cores to run them) and serve the next.
            for _ in 0..2 {
                pool.run_wave_timed(&[job(0), job(1)], |_, _| ())
                    .expect("ran");
                assert_eq!(pool.pool.helpers(), pool.pool.width() - 1);
            }
        });
        // One worker never starts any.
        sys.with_pool(LoopConfig::default(), |pool| {
            pool.run_wave_timed(&[job(0), job(1)], |_, _| ())
                .expect("ran");
            assert_eq!(pool.pool.helpers(), 0);
        });
    }
}
