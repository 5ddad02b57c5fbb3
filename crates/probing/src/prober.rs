//! The prober: issue probes against the simulated Internet with accounting,
//! virtual latency, optional measurement reuse, and bounded retries.
//!
//! A [`Prober`] is cheap to clone and thread-safe; campaign code clones one
//! per worker so counters/clock/cache are shared.
//!
//! # Faults and retries
//!
//! When the sim's [`revtr_netsim::FaultConfig`] enables faults, individual
//! probe attempts can be lost (transient loss, ICMP rate limiting, VP
//! spoof-filter flaps). The prober re-sends fault-lost attempts up to the
//! per-kind budgets of its [`RetryPolicy`], charging virtual backoff
//! between attempts and counting every re-send in
//! [`ProbeKind::Retries`] / every fault loss in [`ProbeKind::Lost`].
//! Genuine unresponsiveness is deterministic in-sim, so it is *not*
//! retried: budgets are spent only where a real retry could help, and a
//! fault-free sim behaves bit-identically whatever the budgets are.

use crate::cache::{CachedRr, MeasurementCache, RrKey, RR_ENTRY_BYTES, TRACEROUTE_ENTRY_BYTES};
use crate::clock::{Clock, SPOOF_BATCH_TIMEOUT_MS};
use crate::counters::{Counters, ProbeKind};
use revtr_netsim::{Addr, EchoReply, RrReply, Sim, TraceResult, TsReply};
use revtr_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Timeout charged for an unanswered non-spoofed probe (virtual ms).
pub const PROBE_TIMEOUT_MS: f64 = 2_000.0;

/// Timeout charged for a traceroute that never completes (virtual ms).
pub const TRACEROUTE_TIMEOUT_MS: f64 = 5_000.0;

/// Per-kind retry budgets and backoff. An *attempt budget* of `n` means
/// one initial send plus up to `n - 1` re-sends of fault-lost attempts;
/// the default budgets (all 1) disable retrying entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempt budget for plain pings.
    pub ping_attempts: u32,
    /// Attempt budget for non-spoofed RR pings (and atlas RR pings).
    pub rr_attempts: u32,
    /// Attempt budget for TS-prespec pings.
    pub ts_attempts: u32,
    /// Attempt budget for whole traceroutes.
    pub traceroute_attempts: u32,
    /// Rounds a spoofed batch re-collects its fault-lost pairs (each
    /// round costs one batch collection timeout).
    pub batch_attempts: u32,
    /// Virtual backoff before re-send number `k` (charged as
    /// `k · backoff_ms`; linear, bounded by the attempt budget).
    pub backoff_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            ping_attempts: 1,
            rr_attempts: 1,
            ts_attempts: 1,
            traceroute_attempts: 1,
            batch_attempts: 1,
            backoff_ms: 0.0,
        }
    }
}

impl RetryPolicy {
    /// The same attempt budget for every probe kind, no backoff.
    pub fn uniform(attempts: u32) -> RetryPolicy {
        let a = attempts.max(1);
        RetryPolicy {
            ping_attempts: a,
            rr_attempts: a,
            ts_attempts: a,
            traceroute_attempts: a,
            batch_attempts: a,
            backoff_ms: 0.0,
        }
    }
}

/// Why a probe produced no reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeLoss {
    /// The destination genuinely did not answer (deterministic in-sim;
    /// retrying cannot help).
    Unanswered,
    /// Every attempt in the budget was lost to injected faults; a larger
    /// budget (or later retry) might still succeed.
    Transient,
}

/// Send-time provenance of one Record Route observation: everything the
/// audit layer needs to replay the probe's reply leg against the oracle
/// ([`revtr_netsim::oracle::Oracle::replay_rr_reply_stamps`]). A cache hit
/// carries the provenance of the *original* send — the stamps in the
/// cached reply were produced under that nonce and those churn epochs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RrProvenance {
    /// Emitting vantage point.
    pub sender: Addr,
    /// Claimed (possibly spoofed) source the reply routed to.
    pub claimed: Addr,
    /// Probe target.
    pub dst: Addr,
    /// Per-probe nonce the send routed under.
    pub nonce: u64,
    /// Churn epoch of the destination's prefix at send time (`None` for
    /// infrastructure destinations).
    pub fwd_epoch: Option<u32>,
    /// Churn epoch of the claimed source's prefix at send time.
    pub rep_epoch: Option<u32>,
    /// True if this observation was served from the measurement cache.
    pub from_cache: bool,
}

/// Result of a spoofed RR batch, with per-pair fault attribution. The
/// engine keeps one per driver and has every batch refill it
/// ([`Prober::spoofed_rr_batch_at`]), so its vectors are allocated once.
#[derive(Clone, Debug, Default)]
pub struct BatchReply {
    /// Per-pair replies, in input order (`None` = no reply).
    pub replies: Vec<Option<RrReply>>,
    /// Per-pair replay provenance, `Some` exactly where `replies` is
    /// (cache hits carry the original send's provenance).
    pub provenance: Vec<Option<RrProvenance>>,
    /// `transient[i]` is true when pair `i`'s misses were fault losses
    /// (its retry budget ran out) rather than genuine unresponsiveness.
    pub transient: Vec<bool>,
    /// Collection timeouts actually charged (0 for an empty or fully
    /// cached batch; > 1 when fault-lost pairs were re-collected).
    pub timeouts: u32,
    /// Working list of a fill: the pairs still waiting for a reply.
    pending: Vec<usize>,
}

/// Probe issuance facade.
#[derive(Clone)]
pub struct Prober<'s> {
    sim: &'s Sim,
    counters: Arc<Counters>,
    clock: Arc<Clock>,
    cache: Arc<MeasurementCache>,
    use_cache: bool,
    retry: RetryPolicy,
    nonce: Arc<AtomicU64>,
    telemetry: Telemetry,
}

impl<'s> Prober<'s> {
    /// New prober with fresh shared state, caching enabled, no retries.
    pub fn new(sim: &'s Sim) -> Prober<'s> {
        Prober {
            sim,
            counters: Arc::new(Counters::new()),
            clock: Arc::new(Clock::new()),
            cache: Arc::new(MeasurementCache::new()),
            use_cache: true,
            retry: RetryPolicy::default(),
            nonce: Arc::new(AtomicU64::new(1)),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Same shared state, with caching toggled (the Table 4 "cache"
    /// ablation knob).
    pub fn with_cache_enabled(&self, enabled: bool) -> Prober<'s> {
        let mut p = self.clone();
        p.use_cache = enabled;
        p
    }

    /// Same shared state, with a different retry policy.
    pub fn with_retry_policy(&self, retry: RetryPolicy) -> Prober<'s> {
        let mut p = self.clone();
        p.retry = retry;
        p
    }

    /// Same shared state (counters, clock, cache), with the given
    /// telemetry handle attached. The default handle is
    /// [`Telemetry::disabled`], under which every instrumentation point
    /// is a single-branch no-op.
    pub fn with_telemetry(&self, telemetry: Telemetry) -> Prober<'s> {
        let mut p = self.clone();
        p.telemetry = telemetry;
        p
    }

    /// The simulator this prober probes.
    pub fn sim(&self) -> &'s Sim {
        self.sim
    }

    /// Shared probe counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Shared measurement cache.
    pub fn cache(&self) -> &MeasurementCache {
        &self.cache
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The attached telemetry handle (disabled unless set via
    /// [`Prober::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Count one fault-attributed probe loss in telemetry.
    fn tele_lost(&self) {
        self.telemetry.counter_add("probing.fault_lost", 1);
    }

    fn next_nonce(&self) -> u64 {
        self.nonce.fetch_add(1, Ordering::Relaxed)
    }

    fn charge(&self, reply_rtt: Option<f64>) {
        match reply_rtt {
            Some(rtt) => self.clock.advance(rtt, self.sim),
            None => self.clock.advance(PROBE_TIMEOUT_MS, self.sim),
        }
    }

    /// Draw the fault fate of one probe attempt toward `dst` (spoofed
    /// attempts also pass the sending VP for the flap check). Consumes a
    /// nonce — and takes any lock — only when faults are active, so
    /// fault-free runs stay bit-identical to pre-fault builds.
    fn fault_lost(&self, spoof_vp: Option<Addr>, dst: Addr) -> bool {
        let faults = self.sim.faults();
        if !faults.any_enabled() {
            return false;
        }
        if faults.probe_lost(self.next_nonce()) {
            return true;
        }
        if let Some(vp) = spoof_vp {
            if faults.vp_spoof_flapped(vp, self.sim.now_hours()) {
                return true;
            }
        }
        match self.sim.responder_router(dst) {
            Some(r) => !faults.icmp_allowed(r, self.clock.now_ms()),
            None => false,
        }
    }

    /// Draw the adversarial-scenario fate of one *option-carrying* probe
    /// attempt (RR/TS ride the router slow path, which is where spoof
    /// filters and asymmetric rate limiters bite). Unlike [`Prober::fault_lost`]
    /// this is pure in stable entity keys — it consumes no nonce and reads
    /// no clock — so cache hit/miss patterns stay schedule-invariant and
    /// campaigns fingerprint identically across dispatch worker counts.
    fn scenario_lost(
        &self,
        spoof_vp: Option<Addr>,
        claimed: Addr,
        dst: Addr,
        attempt: u32,
    ) -> bool {
        if !self.sim.scenario().any_enabled() {
            return false;
        }
        if let Some(vp) = spoof_vp {
            if self.sim.scenario_spoof_dropped(vp, dst) {
                return true;
            }
        }
        let sender = spoof_vp.unwrap_or(claimed);
        self.sim
            .scenario_rate_limited(dst, sender, spoof_vp.is_some(), u64::from(attempt))
    }

    /// Churn epochs of the (destination, claimed source) prefixes at this
    /// instant. Must be read *immediately before* the sim probe call —
    /// `charge` can flush virtual hours into the sim and bump epochs.
    fn epochs(&self, dst: Addr, claimed: Addr) -> (Option<u32>, Option<u32>) {
        (
            self.sim.host_prefix(dst).map(|p| self.sim.prefix_epoch(p)),
            self.sim
                .host_prefix(claimed)
                .map(|p| self.sim.prefix_epoch(p)),
        )
    }

    /// Charge backoff before re-send number `attempt` (1-based) and count
    /// the retry.
    fn charge_retry(&self, attempt: u32) {
        self.counters.bump(ProbeKind::Retries);
        self.telemetry.counter_add("probing.retries", 1);
        if self.retry.backoff_ms > 0.0 {
            self.clock
                .advance(self.retry.backoff_ms * attempt as f64, self.sim);
        }
    }

    // ---- pings ------------------------------------------------------------

    /// Plain ping, retrying fault-lost attempts within budget.
    pub fn ping(&self, src: Addr, dst: Addr) -> Option<EchoReply> {
        for attempt in 0..self.retry.ping_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(attempt);
            }
            self.counters.bump(ProbeKind::Ping);
            if self.fault_lost(None, dst) {
                self.counters.bump(ProbeKind::Lost);
                self.tele_lost();
                self.charge(None);
                continue;
            }
            let r = self.sim.ping(src, dst);
            self.charge(r.as_ref().map(|x| x.rtt_ms));
            return r;
        }
        None
    }

    // ---- record route -------------------------------------------------------

    /// Non-spoofed RR ping from `src`, reusing a fresh cached result when
    /// caching is enabled. Collapses [`Prober::rr_ping_outcome`]'s loss
    /// attribution.
    pub fn rr_ping(&self, src: Addr, dst: Addr) -> Option<RrReply> {
        self.rr_ping_outcome(src, dst).ok()
    }

    /// Non-spoofed RR ping distinguishing *why* it failed: genuinely
    /// unanswered (persistent) vs fault-lost beyond the retry budget
    /// (transient).
    pub fn rr_ping_outcome(&self, src: Addr, dst: Addr) -> Result<RrReply, ProbeLoss> {
        self.rr_ping_observed(src, dst).map(|(r, _)| r)
    }

    /// [`Prober::rr_ping_outcome`] plus the send-time provenance needed to
    /// replay the observation (stitch-trace audit).
    pub fn rr_ping_observed(
        &self,
        src: Addr,
        dst: Addr,
    ) -> Result<(RrReply, RrProvenance), ProbeLoss> {
        let key = RrKey {
            sender: src,
            claimed: src,
            dst,
        };
        if self.use_cache {
            if let Some(hit) = self.cache.get_rr(self.sim, key) {
                let prov = RrProvenance {
                    sender: src,
                    claimed: src,
                    dst,
                    nonce: hit.nonce,
                    fwd_epoch: hit.fwd_epoch,
                    rep_epoch: hit.rep_epoch,
                    from_cache: true,
                };
                return hit.reply.map(|r| (r, prov)).ok_or(ProbeLoss::Unanswered);
            }
        }
        for attempt in 0..self.retry.rr_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(attempt);
            }
            self.counters.bump(ProbeKind::Rr);
            if self.fault_lost(None, dst) || self.scenario_lost(None, src, dst, attempt) {
                self.counters.bump(ProbeKind::Lost);
                self.tele_lost();
                self.charge(None);
                continue;
            }
            let nonce = self.next_nonce();
            let (fwd_epoch, rep_epoch) = self.epochs(dst, src);
            let r = self.sim.rr_ping(src, dst, nonce);
            self.charge(r.as_ref().map(|x| x.rtt_ms));
            if self.use_cache {
                // Cache only genuine outcomes; fault losses above are
                // transient and must not be negative-cached.
                self.counters.add(ProbeKind::CacheBytes, RR_ENTRY_BYTES);
                self.cache.put_rr(
                    self.sim,
                    key,
                    CachedRr {
                        reply: r.clone(),
                        nonce,
                        fwd_epoch,
                        rep_epoch,
                    },
                );
            }
            let prov = RrProvenance {
                sender: src,
                claimed: src,
                dst,
                nonce,
                fwd_epoch,
                rep_epoch,
                from_cache: false,
            };
            return r.map(|x| (x, prov)).ok_or(ProbeLoss::Unanswered);
        }
        self.telemetry.counter_add("probing.transient_exhausted", 1);
        Err(ProbeLoss::Transient)
    }

    /// RR ping issued for the background RR-atlas (§4.2): identical
    /// semantics, separate accounting (offline budget).
    pub fn atlas_rr_ping(&self, sender: Addr, claimed: Addr, dst: Addr) -> Option<RrReply> {
        let spoofed = sender != claimed;
        for attempt in 0..self.retry.rr_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(attempt);
            }
            self.counters.bump(ProbeKind::AtlasRr);
            if self.fault_lost(spoofed.then_some(sender), dst)
                || self.scenario_lost(spoofed.then_some(sender), claimed, dst, attempt)
            {
                self.counters.bump(ProbeKind::Lost);
                self.tele_lost();
                self.charge(None);
                continue;
            }
            let r = self
                .sim
                .rr_ping_from(sender, claimed, dst, self.next_nonce());
            self.charge(r.as_ref().map(|x| x.rtt_ms));
            return r;
        }
        None
    }

    /// A batch of spoofed RR pings, all claiming source `claimed`, one per
    /// `(vantage point, destination)` pair. Each *collection round* costs
    /// one 10-second timeout of virtual time (§5.2.4), which is what makes
    /// batch count the dominant latency factor (Fig. 5c); fault-lost pairs
    /// are re-collected for up to [`RetryPolicy::batch_attempts`] rounds.
    /// An empty or fully cached batch costs nothing.
    pub fn spoofed_rr_batch(&self, pairs: &[(Addr, Addr)], claimed: Addr) -> BatchReply {
        let mut out = BatchReply::default();
        self.spoofed_rr_batch_at(pairs, claimed, &[], &mut out);
        out
    }

    /// [`Prober::spoofed_rr_batch`] into a caller-owned `out` (overwritten;
    /// its vectors are reused), with per-pair scenario attempt bases:
    /// `attempt_base[i]` (missing entries read 0) counts the pair's prior
    /// re-batches, so adversarial rate limiters re-roll their per-attempt
    /// drop on every re-collection instead of repeating the same verdict.
    /// Pure request-local state — passing it keeps campaigns
    /// worker-count-invariant where a shared counter would not.
    pub fn spoofed_rr_batch_at(
        &self,
        pairs: &[(Addr, Addr)],
        claimed: Addr,
        attempt_base: &[u32],
        out: &mut BatchReply,
    ) {
        let n = pairs.len();
        let BatchReply {
            replies,
            provenance,
            transient,
            timeouts,
            pending,
        } = out;
        replies.clear();
        replies.resize(n, None);
        provenance.clear();
        provenance.resize(n, None);
        transient.clear();
        transient.resize(n, false);
        *timeouts = 0;
        pending.clear();
        for (i, &(vp, dst)) in pairs.iter().enumerate() {
            let key = RrKey {
                sender: vp,
                claimed,
                dst,
            };
            if self.use_cache {
                if let Some(hit) = self.cache.get_rr(self.sim, key) {
                    if hit.reply.is_some() {
                        provenance[i] = Some(RrProvenance {
                            sender: vp,
                            claimed,
                            dst,
                            nonce: hit.nonce,
                            fwd_epoch: hit.fwd_epoch,
                            rep_epoch: hit.rep_epoch,
                            from_cache: true,
                        });
                    }
                    replies[i] = hit.reply;
                    continue;
                }
            }
            pending.push(i);
        }
        if self.telemetry.is_enabled() && n > 0 {
            self.telemetry.counter_add("probing.batches", 1);
            self.telemetry.record("probing.batch.pairs", n as u64);
            self.telemetry
                .counter_add("probing.batch.cached_pairs", (n - pending.len()) as u64);
        }
        for round in 0..self.retry.batch_attempts.max(1) {
            if pending.is_empty() {
                break;
            }
            if round > 0 {
                self.counters.add(ProbeKind::Retries, pending.len() as u64);
                self.telemetry
                    .counter_add("probing.retries", pending.len() as u64);
            }
            // Probe the pending pairs in order; the fault-lost ones stay.
            pending.retain(|&i| {
                let (vp, dst) = pairs[i];
                self.counters.bump(ProbeKind::SpoofRr);
                let att = attempt_base.get(i).copied().unwrap_or(0) + round;
                if self.fault_lost(Some(vp), dst) || self.scenario_lost(Some(vp), claimed, dst, att)
                {
                    self.counters.bump(ProbeKind::Lost);
                    self.tele_lost();
                    transient[i] = true;
                    return true;
                }
                let nonce = self.next_nonce();
                let (fwd_epoch, rep_epoch) = self.epochs(dst, claimed);
                let r = self.sim.rr_ping_from(vp, claimed, dst, nonce);
                if self.use_cache {
                    let key = RrKey {
                        sender: vp,
                        claimed,
                        dst,
                    };
                    self.counters.add(ProbeKind::CacheBytes, RR_ENTRY_BYTES);
                    self.cache.put_rr(
                        self.sim,
                        key,
                        CachedRr {
                            reply: r.clone(),
                            nonce,
                            fwd_epoch,
                            rep_epoch,
                        },
                    );
                }
                provenance[i] = r.as_ref().map(|_| RrProvenance {
                    sender: vp,
                    claimed,
                    dst,
                    nonce,
                    fwd_epoch,
                    rep_epoch,
                    from_cache: false,
                });
                replies[i] = r;
                transient[i] = false;
                false
            });
            *timeouts += 1;
            self.clock.advance(SPOOF_BATCH_TIMEOUT_MS, self.sim);
        }
        if self.telemetry.is_enabled() && n > 0 {
            self.telemetry
                .record("probing.batch.rounds", u64::from(*timeouts));
            self.telemetry
                .counter_add("probing.batch.timeouts", u64::from(*timeouts));
        }
    }

    // ---- timestamp -------------------------------------------------------------

    /// Non-spoofed TS-prespec ping. Collapses
    /// [`Prober::ts_ping_outcome`]'s loss attribution.
    pub fn ts_ping(&self, src: Addr, dst: Addr, prespec: &[Addr]) -> Option<TsReply> {
        self.ts_ping_outcome(src, dst, prespec).ok()
    }

    /// Non-spoofed TS-prespec ping distinguishing persistent from
    /// transient (fault-budget-exhausted) failure.
    pub fn ts_ping_outcome(
        &self,
        src: Addr,
        dst: Addr,
        prespec: &[Addr],
    ) -> Result<TsReply, ProbeLoss> {
        for attempt in 0..self.retry.ts_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(attempt);
            }
            self.counters.bump(ProbeKind::Ts);
            if self.fault_lost(None, dst) || self.scenario_lost(None, src, dst, attempt) {
                self.counters.bump(ProbeKind::Lost);
                self.tele_lost();
                self.charge(None);
                continue;
            }
            let r = self
                .sim
                .ts_ping_from(src, src, dst, prespec, self.next_nonce());
            self.charge(r.as_ref().map(|x| x.rtt_ms));
            return r.ok_or(ProbeLoss::Unanswered);
        }
        self.telemetry.counter_add("probing.transient_exhausted", 1);
        Err(ProbeLoss::Transient)
    }

    /// A batch of spoofed TS pings (one collection timeout per round, as
    /// for [`Prober::spoofed_rr_batch`]; fault-lost probes re-collect
    /// within [`RetryPolicy::batch_attempts`]).
    pub fn spoofed_ts_batch(
        &self,
        probes: &[(Addr, Addr, Vec<Addr>)],
        claimed: Addr,
    ) -> Vec<Option<TsReply>> {
        if probes.is_empty() {
            return Vec::new();
        }
        let n = probes.len();
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("probing.ts_batches", 1);
            self.telemetry.record("probing.ts_batch.pairs", n as u64);
        }
        let mut out: Vec<Option<TsReply>> = vec![None; n];
        let mut pending: Vec<usize> = (0..n).collect();
        for round in 0..self.retry.batch_attempts.max(1) {
            if pending.is_empty() {
                break;
            }
            if round > 0 {
                self.counters.add(ProbeKind::Retries, pending.len() as u64);
                self.telemetry
                    .counter_add("probing.retries", pending.len() as u64);
            }
            let mut still_pending = Vec::new();
            for &i in &pending {
                let (vp, dst, prespec) = &probes[i];
                self.counters.bump(ProbeKind::SpoofTs);
                if self.fault_lost(Some(*vp), *dst)
                    || self.scenario_lost(Some(*vp), claimed, *dst, round)
                {
                    self.counters.bump(ProbeKind::Lost);
                    self.tele_lost();
                    still_pending.push(i);
                    continue;
                }
                out[i] = self
                    .sim
                    .ts_ping_from(*vp, claimed, *dst, prespec, self.next_nonce());
            }
            self.clock.advance(SPOOF_BATCH_TIMEOUT_MS, self.sim);
            pending = still_pending;
        }
        out
    }

    // ---- traceroute --------------------------------------------------------------

    /// (Paris) traceroute with caching.
    pub fn traceroute(&self, src: Addr, dst: Addr) -> Option<TraceResult> {
        if self.use_cache {
            if let Some(hit) = self.cache.get_traceroute(self.sim, src, dst) {
                return hit;
            }
        }
        self.traceroute_fresh(src, dst)
    }

    /// Traceroute bypassing the cache. Unlike the RR paths above, this
    /// *intentionally* writes through to the cache even on a
    /// cache-disabled prober: `traceroute_fresh` is the atlas-refresh
    /// primitive, and a forced refresh must update the shared cache or
    /// every subsequent cached read would serve the stale trace it was
    /// called to replace.
    pub fn traceroute_fresh(&self, src: Addr, dst: Addr) -> Option<TraceResult> {
        let flow = (revtr_netsim::hash::mix2(src.0 as u64, dst.0 as u64) & 0xFFFF) as u16;
        for attempt in 0..self.retry.traceroute_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(attempt);
            }
            self.counters.bump(ProbeKind::Traceroutes);
            if self.fault_lost(None, dst) {
                self.counters.bump(ProbeKind::Lost);
                self.tele_lost();
                self.clock.advance(TRACEROUTE_TIMEOUT_MS, self.sim);
                continue;
            }
            let r = self.sim.traceroute(src, dst, flow);
            match &r {
                Some(t) => {
                    self.counters
                        .add(ProbeKind::TraceroutePkts, t.hops.len() as u64);
                    self.clock.advance(t.rtt_ms, self.sim);
                }
                None => self.clock.advance(TRACEROUTE_TIMEOUT_MS, self.sim),
            }
            self.counters
                .add(ProbeKind::CacheBytes, TRACEROUTE_ENTRY_BYTES);
            self.cache.put_traceroute(self.sim, src, dst, r.clone());
            return r;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::SimConfig;

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 21)
    }

    #[test]
    fn counters_track_probe_kinds() {
        let s = sim();
        let p = Prober::new(&s);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let vp2 = s.topo().vp_sites[2].host;
        p.ping(vp0, vp1);
        p.rr_ping(vp0, vp1);
        p.spoofed_rr_batch(&[(vp0, vp1), (vp1, vp0)], vp2);
        p.traceroute(vp0, vp1);
        let snap = p.counters().snapshot();
        assert_eq!(snap.ping, 1);
        assert_eq!(snap.rr, 1);
        assert_eq!(snap.spoof_rr, 2);
        assert_eq!(snap.traceroutes, 1);
        assert!(snap.traceroute_pkts >= 2);
        assert_eq!(snap.retries, 0, "no faults, no retries");
        assert_eq!(snap.lost, 0);
    }

    #[test]
    fn cache_avoids_repeat_probes() {
        let s = sim();
        let p = Prober::new(&s);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let a = p.rr_ping(vp0, vp1);
        let before = p.counters().snapshot();
        let b = p.rr_ping(vp0, vp1);
        let after = p.counters().snapshot();
        assert_eq!(a, b);
        assert_eq!(before.rr, after.rr, "second call must hit the cache");

        // With caching disabled, the probe is re-sent.
        let p2 = p.with_cache_enabled(false);
        p2.rr_ping(vp0, vp1);
        assert_eq!(p.counters().snapshot().rr, after.rr + 1);
    }

    #[test]
    fn cache_disabled_prober_does_not_write_cache() {
        // Regression: a cache-ablation prober used to *write* its results
        // into the shared cache, so the supposedly cache-less run warmed
        // the cache for everyone else and skewed the Table 4 ablation.
        let s = sim();
        let p = Prober::new(&s);
        let ablated = p.with_cache_enabled(false);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let vp2 = s.topo().vp_sites[2].host;
        ablated.rr_ping(vp0, vp1);
        ablated.spoofed_rr_batch(&[(vp1, vp2)], vp0);
        // The caching prober must still have to send fresh probes.
        let before = p.counters().snapshot();
        p.rr_ping(vp0, vp1);
        p.spoofed_rr_batch(&[(vp1, vp2)], vp0);
        let d = p.counters().snapshot().since(&before);
        assert_eq!(d.rr, 1, "ablated prober leaked an rr cache entry");
        assert_eq!(d.spoof_rr, 1, "ablated prober leaked a spoofed entry");
    }

    #[test]
    fn batch_charges_one_timeout() {
        let s = sim();
        let p = Prober::new(&s);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let vp2 = s.topo().vp_sites[2].host;
        let t0 = p.clock().now_ms();
        let b = p.spoofed_rr_batch(&[(vp1, vp2), (vp2, vp1)], vp0);
        let dt = p.clock().now_ms() - t0;
        assert_eq!(b.timeouts, 1);
        assert!((dt - SPOOF_BATCH_TIMEOUT_MS).abs() < 1e-9);
        // Empty batch is free.
        let t1 = p.clock().now_ms();
        let b = p.spoofed_rr_batch(&[], vp0);
        assert_eq!(b.timeouts, 0);
        assert_eq!(p.clock().now_ms(), t1);
    }

    #[test]
    fn fully_cached_batch_is_free() {
        // Regression: a batch answered entirely from cache used to charge
        // the full 10 s collection timeout anyway.
        let s = sim();
        let p = Prober::new(&s);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let vp2 = s.topo().vp_sites[2].host;
        let pairs = [(vp1, vp2), (vp2, vp1)];
        let first = p.spoofed_rr_batch(&pairs, vp0);
        let t0 = p.clock().now_ms();
        let before = p.counters().snapshot();
        let second = p.spoofed_rr_batch(&pairs, vp0);
        assert_eq!(second.timeouts, 0, "fully cached batch must cost 0");
        assert_eq!(p.clock().now_ms(), t0, "no virtual time may pass");
        assert_eq!(
            p.counters().snapshot().since(&before).spoof_rr,
            0,
            "no probes re-sent"
        );
        assert_eq!(first.replies, second.replies);
    }

    #[test]
    fn unanswered_probe_charges_timeout() {
        let s = sim();
        let p = Prober::new(&s);
        let vp0 = s.topo().vp_sites[0].host;
        let t0 = p.clock().now_ms();
        assert!(p.ping(vp0, Addr::new(10, 9, 9, 9)).is_none());
        assert!((p.clock().now_ms() - t0 - PROBE_TIMEOUT_MS).abs() < 1e-9);
    }

    #[test]
    fn traceroute_packets_counted_per_hop() {
        let s = sim();
        let p = Prober::new(&s);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let t = p.traceroute_fresh(vp0, vp1).expect("VPs reachable");
        assert_eq!(p.counters().snapshot().traceroute_pkts, t.hops.len() as u64);
    }

    #[test]
    fn retries_recover_lossy_probes() {
        let mut cfg = SimConfig::tiny();
        cfg.faults.probe_loss = 0.4;
        let s = Sim::build(cfg, 23);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        // Without retries some rr_pings to a responsive VP host are lost…
        let p0 = Prober::new(&s).with_cache_enabled(false);
        let lost_once = (0..40).filter(|_| p0.rr_ping(vp0, vp1).is_none()).count();
        assert!(lost_once > 0, "loss rate 0.4 lost nothing in 40 probes");
        assert!(p0.counters().snapshot().lost > 0);
        // …while a generous budget recovers (virtually) all of them.
        let p6 = p0.with_retry_policy(RetryPolicy::uniform(6));
        let lost_retried = (0..40).filter(|_| p6.rr_ping(vp0, vp1).is_none()).count();
        assert!(
            lost_retried < lost_once,
            "budget 6 ({lost_retried} lost) must beat budget 1 ({lost_once} lost)"
        );
        assert!(p6.counters().snapshot().retries > 0);
    }

    #[test]
    fn outcome_distinguishes_transient_from_unanswered() {
        let mut cfg = SimConfig::tiny();
        cfg.faults.probe_loss = 1.0; // every attempt lost
        let s = Sim::build(cfg, 24);
        let p = Prober::new(&s).with_cache_enabled(false);
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        assert_eq!(
            p.rr_ping_outcome(vp0, vp1),
            Err(ProbeLoss::Transient),
            "total loss must be attributed to faults"
        );
        // A genuinely unresponsive destination is persistent even with a
        // fault-free sim and retry budget to spare.
        let s2 = sim();
        let p2 = Prober::new(&s2).with_retry_policy(RetryPolicy::uniform(4));
        let vp = s2.topo().vp_sites[0].host;
        let before = p2.counters().snapshot();
        assert_eq!(
            p2.rr_ping_outcome(vp, Addr::new(10, 9, 9, 9)),
            Err(ProbeLoss::Unanswered)
        );
        let d = p2.counters().snapshot().since(&before);
        assert_eq!(d.rr, 1, "deterministic non-answers are not retried");
        assert_eq!(d.retries, 0);
    }

    #[test]
    fn batch_retry_rounds_charge_per_round() {
        let mut cfg = SimConfig::tiny();
        cfg.faults.probe_loss = 1.0;
        let s = Sim::build(cfg, 25);
        let p = Prober::new(&s).with_retry_policy(RetryPolicy::uniform(3));
        let vp0 = s.topo().vp_sites[0].host;
        let vp1 = s.topo().vp_sites[1].host;
        let vp2 = s.topo().vp_sites[2].host;
        let t0 = p.clock().now_ms();
        let b = p.spoofed_rr_batch(&[(vp1, vp2)], vp0);
        assert_eq!(b.timeouts, 3, "every round re-collects the lost pair");
        assert!((p.clock().now_ms() - t0 - 3.0 * SPOOF_BATCH_TIMEOUT_MS).abs() < 1e-9);
        assert!(b.replies[0].is_none());
        assert!(b.transient[0], "loss must be attributed as transient");
        let snap = p.counters().snapshot();
        assert_eq!(snap.spoof_rr, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.lost, 3);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use revtr_netsim::SimConfig;

    #[test]
    fn ts_batches_account_and_charge() {
        let s = Sim::build(SimConfig::tiny(), 22);
        let p = Prober::new(&s);
        let vps = &s.topo().vp_sites;
        let t0 = p.clock().now_ms();
        let probes = vec![(vps[1].host, vps[2].host, vec![vps[2].host])];
        let out = p.spoofed_ts_batch(&probes, vps[0].host);
        assert_eq!(out.len(), 1);
        assert_eq!(p.counters().snapshot().spoof_ts, 1);
        assert!((p.clock().now_ms() - t0 - crate::clock::SPOOF_BATCH_TIMEOUT_MS).abs() < 1e-9);
    }

    #[test]
    fn cache_disabled_prober_shares_counters() {
        let s = Sim::build(SimConfig::tiny(), 22);
        let p = Prober::new(&s);
        let q = p.with_cache_enabled(false);
        let vps = &s.topo().vp_sites;
        p.ping(vps[0].host, vps[1].host);
        q.ping(vps[0].host, vps[1].host);
        assert_eq!(p.counters().snapshot().ping, 2, "counters are shared");
    }

    #[test]
    fn traceroute_cache_respects_virtual_ttl() {
        let s = Sim::build(SimConfig::tiny(), 22);
        let p = Prober::new(&s);
        let vps = &s.topo().vp_sites;
        p.traceroute(vps[0].host, vps[1].host);
        let before = p.counters().snapshot().traceroutes;
        p.traceroute(vps[0].host, vps[1].host);
        assert_eq!(p.counters().snapshot().traceroutes, before, "cache hit");
        s.advance_hours(25.0); // beyond the one-day TTL
        p.traceroute(vps[0].host, vps[1].host);
        assert_eq!(
            p.counters().snapshot().traceroutes,
            before + 1,
            "expired entry must be re-measured"
        );
    }
}
