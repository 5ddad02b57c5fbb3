//! The prober: issue probes against the simulated Internet with accounting,
//! virtual latency, optional measurement reuse, and bounded retries.
//!
//! A [`Prober`] is cheap to clone and thread-safe; campaign code clones one
//! per worker so counters/clock/cache are shared.
//!
//! # Metering
//!
//! Every charge — virtual time, a counted probe — goes through two private
//! helpers that charge the shared [`Clock`] / [`Counters`] *and* the
//! caller's [`Meter`]. The engine's entry points take the meter of the
//! request they probe for; everyone else calls the meterless wrappers
//! ([`Prober::ping`], [`Prober::rr_ping`], [`Prober::survey_rr_ping`],
//! [`Prober::spoofed_rr_batch`], [`Prober::traceroute_fresh`],
//! [`Prober::atlas_rr_ping`]), which charge a throw-away one.
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

use crate::cache::{CachedRr, MeasurementCache, RrKey, LAST_LINK_ENTRY_BYTES, RR_ENTRY_BYTES};
use crate::clock::{Clock, SPOOF_BATCH_TIMEOUT_MS};
use crate::counters::{Counters, ProbeKind};
use crate::meter::Meter;
use revtr_netsim::{
    Addr, EchoReply, RrReply, Sim, SinkTree, TraceResult, TsReply, TtlAnswer, TtlView,
};
use revtr_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::num::NonZeroU32;
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
    /// Churn epoch of the destination's prefix at send time (none for
    /// infrastructure destinations).
    pub fwd_epoch: SentEpoch,
    /// Churn epoch of the claimed source's prefix at send time.
    pub rep_epoch: SentEpoch,
    /// True if this observation was served from the measurement cache.
    pub from_cache: bool,
}

/// A churn epoch recorded at send time, or none: an `Option<u32>` in four
/// bytes. It holds `epoch + 1`, so zero is free to mean none — which keeps
/// [`RrProvenance`], and every reverse hop that carries one, a word
/// smaller. Reads, prints and serializes as the `Option<u32>` it stands
/// for.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct SentEpoch(Option<NonZeroU32>);

impl SentEpoch {
    /// The recorded epoch, if any.
    pub fn get(self) -> Option<u32> {
        self.0.map(|e| e.get() - 1)
    }
}

impl From<Option<u32>> for SentEpoch {
    fn from(epoch: Option<u32>) -> SentEpoch {
        SentEpoch(epoch.map(|e| {
            NonZeroU32::new(e.wrapping_add(1)).expect("a churn epoch stays below u32::MAX")
        }))
    }
}

impl std::fmt::Debug for SentEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

impl Serialize for SentEpoch {
    fn to_value(&self) -> serde::Value {
        self.get().to_value()
    }
}

impl Deserialize for SentEpoch {
    fn from_value(v: &serde::Value) -> Result<SentEpoch, serde::DeError> {
        let epoch = Option::<u32>::from_value(v)?;
        if epoch == Some(u32::MAX) {
            return Err(serde::DeError::custom(
                "churn epoch u32::MAX has no encoding",
            ));
        }
        Ok(epoch.into())
    }
}

/// The last link of the forward path from a source to a target: all the
/// symmetry step (Q5) uses of a traceroute, measured by
/// [`Prober::last_link`] without tracing the hops nearer the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LastLink {
    /// The nearest hop before the target that answered from an address
    /// other than the target's own (`None`: no TTL short of it did).
    pub penult: Option<Addr>,
    /// The lowest TTL that got as far as the target.
    pub dist: u8,
    /// TTLs strictly between `penult` and the target that produced no
    /// such hop: 0 when the two are adjacent on the trace.
    pub gap: u8,
    /// Whether the target answered the echo (else the trace merely ended
    /// where it would be).
    pub reached: bool,
}

impl LastLink {
    /// The TTL `penult` answered at (0 without one): its distance from
    /// the source along this path.
    pub fn penult_dist(&self) -> u8 {
        self.dist - self.gap - 1
    }

    /// Drive `view` Doubletree-style for the last link before `target`:
    /// first probe at `start`, forward until a probe gets as far as the
    /// target if that fell short, then backward — over what an overshoot
    /// left unread — to the first TTL answering from another address.
    fn sweep(view: &mut TtlView, target: Addr, start: u8) -> LastLink {
        let mut ttl = start.max(1);
        let reached = loop {
            match view.probe(ttl) {
                TtlAnswer::Echo => break true,
                TtlAnswer::PastEnd => break false,
                // No path outlasts `MAX_HOPS + 1` TTLs: this cannot wrap.
                TtlAnswer::Exceeded(_) | TtlAnswer::Silent => ttl += 1,
            }
        };
        let mut dist = ttl;
        let penult = loop {
            ttl -= 1;
            match (ttl > 0).then(|| view.probe(ttl)) {
                None => break None,
                Some(TtlAnswer::Exceeded(hop)) if hop != target => break Some(hop),
                Some(TtlAnswer::Echo | TtlAnswer::PastEnd) => dist = ttl,
                Some(TtlAnswer::Exceeded(_) | TtlAnswer::Silent) => {}
            }
        };
        LastLink {
            penult,
            dist,
            gap: dist - ttl - 1,
            reached,
        }
    }
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

    /// Charge `ms` of virtual time, to the shared clock and to `m`.
    fn advance(&self, m: &mut Meter, ms: f64) {
        m.ms += ms;
        self.clock.advance(ms, self.sim);
    }

    /// Count `n` of `kind`, on the shared counters and on `m`.
    fn count(&self, m: &mut Meter, kind: ProbeKind, n: u64) {
        m.tally.add(kind, n);
        self.counters.add(kind, n);
    }

    /// Count `n` engine events ([`ProbeKind::Events`]) for the task `m`
    /// meters. Public — the engine lives in the `core` crate — and charged
    /// like every probe kind, so a stage's cost delta includes the steps
    /// that ran it.
    pub fn count_events(&self, m: &mut Meter, n: u64) {
        self.count(m, ProbeKind::Events, n);
    }

    fn charge(&self, m: &mut Meter, reply_rtt: Option<f64>) {
        self.advance(m, reply_rtt.unwrap_or(PROBE_TIMEOUT_MS));
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
    fn charge_retry(&self, m: &mut Meter, attempt: u32) {
        self.count(m, ProbeKind::Retries, 1);
        self.telemetry.counter_add("probing.retries", 1);
        if self.retry.backoff_ms > 0.0 {
            self.advance(m, self.retry.backoff_ms * attempt as f64);
        }
    }

    // ---- pings ------------------------------------------------------------

    /// Plain ping, retrying fault-lost attempts within budget.
    pub fn ping(&self, src: Addr, dst: Addr) -> Option<EchoReply> {
        self.ping_metered(&mut Meter::default(), src, dst)
    }

    /// [`Prober::ping`], charged to the caller's meter.
    pub fn ping_metered(&self, m: &mut Meter, src: Addr, dst: Addr) -> Option<EchoReply> {
        for attempt in 0..self.retry.ping_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(m, attempt);
            }
            self.count(m, ProbeKind::Ping, 1);
            if self.fault_lost(None, dst) {
                self.count(m, ProbeKind::Lost, 1);
                self.tele_lost();
                self.charge(m, None);
                continue;
            }
            let r = self.sim.ping(src, dst);
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
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
        self.rr_ping_observed(&mut Meter::default(), src, dst)
            .map(|(r, _)| r)
    }

    /// [`Prober::rr_ping_outcome`] plus the send-time provenance needed to
    /// replay the observation (stitch-trace audit), charged to `m`.
    pub fn rr_ping_observed(
        &self,
        m: &mut Meter,
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
                    fwd_epoch: hit.fwd_epoch.into(),
                    rep_epoch: hit.rep_epoch.into(),
                    from_cache: true,
                };
                return hit.reply.map(|r| (r, prov)).ok_or(ProbeLoss::Unanswered);
            }
        }
        for attempt in 0..self.retry.rr_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(m, attempt);
            }
            self.count(m, ProbeKind::Rr, 1);
            if self.fault_lost(None, dst) || self.scenario_lost(None, src, dst, attempt) {
                self.count(m, ProbeKind::Lost, 1);
                self.tele_lost();
                self.charge(m, None);
                continue;
            }
            let nonce = self.next_nonce();
            let (fwd_epoch, rep_epoch) = self.epochs(dst, src);
            let r = self.sim.rr_ping(src, dst, nonce);
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
            if self.use_cache {
                // Cache only genuine outcomes; fault losses above are
                // transient and must not be negative-cached.
                self.count(m, ProbeKind::CacheBytes, RR_ENTRY_BYTES);
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
                fwd_epoch: fwd_epoch.into(),
                rep_epoch: rep_epoch.into(),
                from_cache: false,
            };
            return r.map(|x| (x, prov)).ok_or(ProbeLoss::Unanswered);
        }
        self.telemetry.counter_add("probing.transient_exhausted", 1);
        Err(ProbeLoss::Transient)
    }

    /// One RR ping of the §4.3 ingress survey: the probe [`Prober::rr_ping`]
    /// sends on a cache-disabled handle — same fault and scenario draws,
    /// nonce, counters and clock — but never near the measurement cache (a
    /// VP→scan-destination ping is one no measurement re-issues), with no
    /// replay provenance (nothing audits the survey), and lending the
    /// caller's sink trees to the two legs: `forward` toward `dst`, `reply`
    /// back toward `src`.
    pub fn survey_rr_ping(
        &self,
        src: Addr,
        dst: Addr,
        mut forward: Option<&mut SinkTree>,
        mut reply: Option<&mut SinkTree>,
    ) -> Option<RrReply> {
        let m = &mut Meter::default();
        for attempt in 0..self.retry.rr_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(m, attempt);
            }
            self.count(m, ProbeKind::Rr, 1);
            if self.fault_lost(None, dst) || self.scenario_lost(None, src, dst, attempt) {
                self.count(m, ProbeKind::Lost, 1);
                self.tele_lost();
                self.charge(m, None);
                continue;
            }
            let r = self.sim.rr_ping_lent(
                src,
                dst,
                self.next_nonce(),
                forward.as_deref_mut(),
                reply.as_deref_mut(),
            );
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
            return r;
        }
        self.telemetry.counter_add("probing.transient_exhausted", 1);
        None
    }

    /// RR ping issued for the background RR-atlas (§4.2): identical
    /// semantics, separate accounting (offline budget).
    pub fn atlas_rr_ping(&self, sender: Addr, claimed: Addr, dst: Addr) -> Option<RrReply> {
        let m = &mut Meter::default();
        let spoofed = sender != claimed;
        for attempt in 0..self.retry.rr_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(m, attempt);
            }
            self.count(m, ProbeKind::AtlasRr, 1);
            if self.fault_lost(spoofed.then_some(sender), dst)
                || self.scenario_lost(spoofed.then_some(sender), claimed, dst, attempt)
            {
                self.count(m, ProbeKind::Lost, 1);
                self.tele_lost();
                self.charge(m, None);
                continue;
            }
            let r = self
                .sim
                .rr_ping_from(sender, claimed, dst, self.next_nonce());
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
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
        self.spoofed_rr_batch_at(&mut Meter::default(), pairs, claimed, &[], &mut out);
        out
    }

    /// [`Prober::spoofed_rr_batch`] charged to `m`, into a caller-owned
    /// `out` (overwritten; its vectors are reused), with per-pair scenario
    /// attempt bases:
    /// `attempt_base[i]` (missing entries read 0) counts the pair's prior
    /// re-batches, so adversarial rate limiters re-roll their per-attempt
    /// drop on every re-collection instead of repeating the same verdict.
    /// Pure request-local state — passing it keeps campaigns
    /// worker-count-invariant where a shared counter would not.
    pub fn spoofed_rr_batch_at(
        &self,
        m: &mut Meter,
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
                            fwd_epoch: hit.fwd_epoch.into(),
                            rep_epoch: hit.rep_epoch.into(),
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
                self.count(m, ProbeKind::Retries, pending.len() as u64);
                self.telemetry
                    .counter_add("probing.retries", pending.len() as u64);
            }
            // Probe the pending pairs in order; the fault-lost ones stay.
            pending.retain(|&i| {
                let (vp, dst) = pairs[i];
                self.count(m, ProbeKind::SpoofRr, 1);
                let att = attempt_base.get(i).copied().unwrap_or(0) + round;
                if self.fault_lost(Some(vp), dst) || self.scenario_lost(Some(vp), claimed, dst, att)
                {
                    self.count(m, ProbeKind::Lost, 1);
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
                    self.count(m, ProbeKind::CacheBytes, RR_ENTRY_BYTES);
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
                    fwd_epoch: fwd_epoch.into(),
                    rep_epoch: rep_epoch.into(),
                    from_cache: false,
                });
                replies[i] = r;
                transient[i] = false;
                false
            });
            *timeouts += 1;
            self.advance(m, SPOOF_BATCH_TIMEOUT_MS);
        }
        if self.telemetry.is_enabled() && n > 0 {
            self.telemetry
                .record("probing.batch.rounds", u64::from(*timeouts));
            self.telemetry
                .counter_add("probing.batch.timeouts", u64::from(*timeouts));
        }
    }

    // ---- timestamp -------------------------------------------------------------

    /// Non-spoofed TS-prespec ping distinguishing persistent from
    /// transient (fault-budget-exhausted) failure, charged to `m`.
    pub fn ts_ping_outcome(
        &self,
        m: &mut Meter,
        src: Addr,
        dst: Addr,
        prespec: &[Addr],
    ) -> Result<TsReply, ProbeLoss> {
        for attempt in 0..self.retry.ts_attempts.max(1) {
            if attempt > 0 {
                self.charge_retry(m, attempt);
            }
            self.count(m, ProbeKind::Ts, 1);
            if self.fault_lost(None, dst) || self.scenario_lost(None, src, dst, attempt) {
                self.count(m, ProbeKind::Lost, 1);
                self.tele_lost();
                self.charge(m, None);
                continue;
            }
            let r = self
                .sim
                .ts_ping_from(src, src, dst, prespec, self.next_nonce());
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
            return r.ok_or(ProbeLoss::Unanswered);
        }
        self.telemetry.counter_add("probing.transient_exhausted", 1);
        Err(ProbeLoss::Transient)
    }

    /// A batch of spoofed TS pings (one collection timeout per round, as
    /// for [`Prober::spoofed_rr_batch`]; fault-lost probes re-collect
    /// within [`RetryPolicy::batch_attempts`]), charged to `m`.
    pub fn spoofed_ts_batch(
        &self,
        m: &mut Meter,
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
                self.count(m, ProbeKind::Retries, pending.len() as u64);
                self.telemetry
                    .counter_add("probing.retries", pending.len() as u64);
            }
            let mut still_pending = Vec::new();
            for &i in &pending {
                let (vp, dst, prespec) = &probes[i];
                self.count(m, ProbeKind::SpoofTs, 1);
                if self.fault_lost(Some(*vp), *dst)
                    || self.scenario_lost(Some(*vp), claimed, *dst, round)
                {
                    self.count(m, ProbeKind::Lost, 1);
                    self.tele_lost();
                    still_pending.push(i);
                    continue;
                }
                out[i] = self
                    .sim
                    .ts_ping_from(*vp, claimed, *dst, prespec, self.next_nonce());
            }
            self.advance(m, SPOOF_BATCH_TIMEOUT_MS);
            pending = still_pending;
        }
        out
    }

    // ---- traceroute --------------------------------------------------------------

    /// The Paris flow id every TTL probe from `src` to `dst` carries.
    pub fn paris_flow(src: Addr, dst: Addr) -> u16 {
        (revtr_netsim::hash::mix2(src.0 as u64, dst.0 as u64) & 0xFFFF) as u16
    }

    /// Open attempt number `attempt` of a traceroute-kind measurement
    /// toward `dst`: charge the retry backoff, count the traceroute and
    /// draw its fault fate. True if the attempt was lost (its timeout is
    /// charged here).
    fn trace_attempt_lost(&self, m: &mut Meter, attempt: u32, dst: Addr) -> bool {
        if attempt > 0 {
            self.charge_retry(m, attempt);
        }
        self.count(m, ProbeKind::Traceroutes, 1);
        if !self.fault_lost(None, dst) {
            return false;
        }
        self.count(m, ProbeKind::Lost, 1);
        self.tele_lost();
        self.advance(m, TRACEROUTE_TIMEOUT_MS);
        true
    }

    /// A full (Paris) traceroute, TTL 1 upward: what atlases are built
    /// from. Never cached — an atlas keeps its own traces.
    pub fn traceroute_fresh(&self, src: Addr, dst: Addr) -> Option<TraceResult> {
        let m = &mut Meter::default();
        let flow = Self::paris_flow(src, dst);
        for attempt in 0..self.retry.traceroute_attempts.max(1) {
            if self.trace_attempt_lost(m, attempt, dst) {
                continue;
            }
            let r = self.sim.traceroute(src, dst, flow);
            match &r {
                Some(t) => {
                    self.count(m, ProbeKind::TraceroutePkts, t.hops.len() as u64);
                    self.advance(m, t.rtt_ms);
                }
                None => self.advance(m, TRACEROUTE_TIMEOUT_MS),
            }
            return r;
        }
        None
    }

    /// The last link of the path a traceroute from `src` to `cur` would
    /// trace, reusing a fresh cached measurement when caching is enabled,
    /// and the packets this call sent for it (0: answered from the cache).
    /// `hint` is where the caller expects `cur` to sit — the first TTL
    /// probed; a wrong guess costs packets (`|hint − dist| + 2` and any
    /// silent TTLs crossed), never the answer. `None` when nothing routes
    /// to `cur` or every attempt was lost to faults. Charged to `m`.
    pub fn last_link(
        &self,
        m: &mut Meter,
        src: Addr,
        cur: Addr,
        hint: u8,
    ) -> Option<(LastLink, u8)> {
        if self.use_cache {
            if let Some(hit) = self.cache.get_last_link(self.sim, src, cur) {
                return hit.map(|link| (link, 0));
            }
        }
        let flow = Self::paris_flow(src, cur);
        for attempt in 0..self.retry.traceroute_attempts.max(1) {
            if self.trace_attempt_lost(m, attempt, cur) {
                continue;
            }
            let measured = self.sim.ttl_view(src, cur, flow).map(|mut view| {
                let link = LastLink::sweep(&mut view, cur, hint);
                let pkts = view.packets();
                self.count(m, ProbeKind::TraceroutePkts, u64::from(pkts));
                self.advance(m, view.rtt_ms());
                self.telemetry.counter_add("probing.last_link.measured", 1);
                self.telemetry
                    .counter_add("probing.last_link.pkts", u64::from(pkts));
                // At most one packet per TTL a byte can name.
                (link, pkts as u8)
            });
            if measured.is_none() {
                self.advance(m, TRACEROUTE_TIMEOUT_MS);
            }
            if self.use_cache {
                // Genuine outcomes only, as for RR: a fault loss above is
                // transient and must not be negative-cached.
                self.count(m, ProbeKind::CacheBytes, LAST_LINK_ENTRY_BYTES);
                self.cache
                    .put_last_link(self.sim, src, cur, measured.map(|(link, _)| link));
            }
            return measured;
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
        // Through the metered entry points, on one meter: it must read
        // what the shared counters and clock read — nothing else ran.
        let m = &mut Meter::default();
        p.ping_metered(m, vp0, vp1);
        let _ = p.rr_ping_observed(m, vp0, vp1);
        let pairs = [(vp0, vp1), (vp1, vp0)];
        p.spoofed_rr_batch_at(m, &pairs, vp2, &[], &mut BatchReply::default());
        p.last_link(m, vp0, vp1, 9);
        let _ = p.ts_ping_outcome(m, vp0, vp1, &[vp1]);
        p.spoofed_ts_batch(m, &[(vp1, vp2, vec![vp2])], vp0);
        let snap = p.counters().snapshot();
        assert_eq!(m.tally, snap);
        assert_eq!(m.ms.to_bits(), p.clock().now_ms().to_bits());
        assert_eq!(snap.ping, 1);
        assert_eq!(snap.rr, 1);
        assert_eq!(snap.spoof_rr, 2);
        assert_eq!((snap.ts, snap.spoof_ts), (1, 1));
        assert_eq!(snap.traceroutes, 1);
        assert!(snap.traceroute_pkts >= 2);
        assert_eq!(snap.retries, 0, "no faults, no retries");
        assert_eq!(snap.lost, 0);
        // The meterless wrappers charge the shared totals alone.
        p.ping(vp0, vp1);
        assert_eq!(p.counters().snapshot().ping, 2);
        assert_eq!(m.tally.ping, 1);
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
    use crate::cache::CacheStats;
    use revtr_netsim::SimConfig;

    #[test]
    fn ts_batches_account_and_charge() {
        let s = Sim::build(SimConfig::tiny(), 22);
        let p = Prober::new(&s);
        let vps = &s.topo().vp_sites;
        let t0 = p.clock().now_ms();
        let probes = vec![(vps[1].host, vps[2].host, vec![vps[2].host])];
        let out = p.spoofed_ts_batch(&mut Meter::default(), &probes, vps[0].host);
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
    fn last_link_cache_respects_virtual_ttl() {
        let s = Sim::build(SimConfig::tiny(), 22);
        let p = Prober::new(&s);
        let vps = &s.topo().vp_sites;
        let measure = || {
            p.last_link(&mut Meter::default(), vps[0].host, vps[1].host, 9)
                .expect("VPs reachable")
        };
        let (link, sent) = measure();
        assert!(sent >= 2 && link.reached);
        let before = p.counters().snapshot().traceroutes;
        assert_eq!(measure(), (link, 0), "cache hit: same link, nothing sent");
        s.advance_hours(23.5); // inside the one-day TTL
        assert_eq!(measure().1, 0, "23.5 h old is fresh");
        assert_eq!(p.counters().snapshot().traceroutes, before);
        s.advance_hours(0.5); // aged exactly 24 h: expired, not fresh
        assert_eq!(measure(), (link, sent), "expired entry must be re-measured");
        assert_eq!(p.counters().snapshot().traceroutes, before + 1);
        let st = p.cache().stats();
        assert_eq!((st.hits, st.misses, st.inserts, st.expired), (2, 2, 2, 1));
    }

    #[test]
    fn last_link_counts_what_its_view_metered() {
        // Honest counting: one traceroute per uncached measurement, one
        // packet per distinct TTL the view was read at, and the cache
        // counters moving as a lookup-then-store always has.
        let s = Sim::build(SimConfig::tiny(), 22);
        let p = Prober::new(&s);
        let vps = &s.topo().vp_sites;
        let (src, dst) = (vps[0].host, vps[2].host);
        let len = s
            .traceroute(src, dst, Prober::paris_flow(src, dst))
            .expect("VPs reachable")
            .hops
            .len() as u8;
        for (round, hint) in [1, len - 1, len, len + 3, 40].into_iter().enumerate() {
            let fresh = p.with_cache_enabled(false);
            let before = (p.counters().snapshot(), p.clock().now_ms());
            let (link, sent) = fresh
                .last_link(&mut Meter::default(), src, dst, hint)
                .expect("routable");
            let d = p.counters().snapshot().since(&before.0);
            // The same sweep on a view of our own: it is the meter.
            let mut view = s
                .ttl_view(src, dst, Prober::paris_flow(src, dst))
                .expect("routable");
            assert_eq!(LastLink::sweep(&mut view, dst, hint), link);
            assert_eq!((d.traceroutes, d.traceroute_pkts), (1, u64::from(sent)));
            assert_eq!(u32::from(sent), view.packets(), "hint {hint}");
            assert_eq!(d.all_packets(), u64::from(sent), "nothing else was sent");
            assert!((p.clock().now_ms() - before.1 - view.rtt_ms()).abs() < 1e-9);
            assert_eq!((link.dist, link.gap, link.reached), (len, 0, true));
            assert_eq!(d.cache_bytes, 0, "a cache-disabled prober stores nothing");
            assert_eq!(p.cache().stats(), CacheStats::default(), "round {round}");
        }
        // Cache on: miss + insert, then hit; an unroutable target is a
        // genuine outcome — counted, timed out, and negative-cached.
        let dark = Addr::new(10, 9, 9, 9);
        for (target, routable) in [(dst, true), (dark, false)] {
            let before = (
                p.counters().snapshot(),
                p.cache().stats(),
                p.clock().now_ms(),
            );
            let first = p.last_link(&mut Meter::default(), src, target, 9);
            assert_eq!(first.is_some(), routable);
            assert_eq!(
                p.last_link(&mut Meter::default(), src, target, 3)
                    .map(|(l, _)| l),
                first.map(|(l, _)| l)
            );
            let d = p.counters().snapshot().since(&before.0);
            let st = p.cache().stats();
            assert_eq!(d.traceroutes, 1, "the second call hit the cache");
            assert_eq!(
                d.traceroute_pkts,
                first.map_or(0, |(_, sent)| u64::from(sent))
            );
            assert_eq!(d.cache_bytes, LAST_LINK_ENTRY_BYTES);
            assert_eq!(
                (st.hits, st.misses, st.inserts, st.expired),
                (
                    before.1.hits + 1,
                    before.1.misses + 1,
                    before.1.inserts + 1,
                    0
                )
            );
            if !routable {
                assert!((p.clock().now_ms() - before.2 - TRACEROUTE_TIMEOUT_MS).abs() < 1e-9);
            }
        }
    }

    /// The generated tiny Internet with one chain pinned by hand: the
    /// forward path from VP 0 to VP `to`, whose routers all answer expired
    /// probes except the ones at the given TTLs.
    fn chain_with_silent_ttls(to: usize, silent: &[usize]) -> (Sim, Addr, Addr, TraceResult) {
        let base = Sim::build(SimConfig::tiny(), 22);
        let (src, dst) = (base.topo().vp_sites[0].host, base.topo().vp_sites[to].host);
        let attach = base.host_attach(src).expect("vp host");
        let flow = Prober::paris_flow(src, dst);
        let walk = base
            .walk(attach, dst, &revtr_netsim::sim::PktMeta::plain(src, flow))
            .expect("VPs reachable");
        let mut topo = base.topo().clone();
        for a in &mut topo.ases {
            a.mpls = false; // every router on the chain is one TTL
        }
        for (i, hop) in walk.hops.iter().enumerate() {
            topo.routers[hop.router.0 as usize].ttl_responsive = !silent.contains(&(i + 1));
        }
        let sim = Sim::from_topology(topo, SimConfig::tiny(), 22);
        let trace = sim.traceroute(src, dst, flow).expect("VPs reachable");
        assert_eq!(trace.hops.len(), walk.hops.len() + 1, "chain + the echo");
        (sim, src, dst, trace)
    }

    #[test]
    fn last_link_reports_a_silent_router_before_the_target() {
        let (_, _, _, clean) = chain_with_silent_ttls(3, &[]);
        let n = clean.hops.len();
        assert!(n >= 4, "chain too short to silence a hop: {clean:?}");
        // The router directly before the target stays silent: the adopted
        // hop is the one before it, and the link says so.
        let (sim, src, dst, trace) = chain_with_silent_ttls(3, &[n - 1]);
        assert_eq!(trace.hops[n - 2], None);
        for hint in 1..=40 {
            let p = Prober::new(&sim).with_cache_enabled(false);
            let (link, _) = p
                .last_link(&mut Meter::default(), src, dst, hint)
                .expect("routable");
            assert_eq!(
                link,
                LastLink {
                    penult: trace.hops[n - 3],
                    dist: n as u8,
                    gap: 1,
                    reached: true
                },
                "hint {hint}"
            );
            assert_eq!(link.penult_dist(), n as u8 - 2);
        }
        // Every router silent: nothing to adopt, the whole path a gap.
        let all: Vec<usize> = (1..n).collect();
        let (sim, src, dst, _) = chain_with_silent_ttls(3, &all);
        let p = Prober::new(&sim).with_cache_enabled(false);
        let (link, sent) = p
            .last_link(&mut Meter::default(), src, dst, n as u8)
            .expect("routable");
        assert_eq!(
            (link.penult, link.gap, link.penult_dist()),
            (None, n as u8 - 1, 0)
        );
        assert_eq!(usize::from(sent), n, "read every TTL down to 1");
    }

    #[test]
    fn last_link_reports_an_echo_silent_target() {
        let (sim, src, _, _) = chain_with_silent_ttls(3, &[]);
        // A host that answers no ping: the trace merely ends where it is.
        let dst = sim
            .topo()
            .prefixes
            .iter()
            .flat_map(|pe| sim.host_addrs(pe.id))
            .find(|&a| !sim.behavior().host_ping_responsive(a) && !sim.is_vp_host(a))
            .expect("a quarter of hosts ignore pings");
        let trace = sim
            .traceroute(src, dst, Prober::paris_flow(src, dst))
            .expect("routable");
        assert!(!trace.reached && trace.hops.last() == Some(&None));
        let n = trace.hops.len() as u8;
        for hint in 1..=40 {
            let p = Prober::new(&sim).with_cache_enabled(false);
            let (link, _) = p
                .last_link(&mut Meter::default(), src, dst, hint)
                .expect("routable");
            assert_eq!((link.dist, link.reached), (n, false), "hint {hint}");
            assert_eq!(
                link.penult,
                trace.hops.iter().rev().flatten().next().copied()
            );
        }
    }
}
