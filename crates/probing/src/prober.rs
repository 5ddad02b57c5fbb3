//! The prober: issue probes against the simulated Internet with accounting,
//! virtual latency, optional measurement reuse, and bounded retries.
//!
//! A [`Prober`] is cheap to clone and thread-safe: a `RevtrSystem` holds
//! one, and a campaign's pool workers share it through `&RevtrSystem`, so
//! every worker charges the same counters, clock and cache.
//!
//! # The deployment boundary
//!
//! The prober is the request plane's one handle on the simulator. Besides
//! probes, it offers the few reads a deployment makes without ground
//! truth, each forwarding one simulator call: deployment time
//! ([`Prober::now_hours`], [`Prober::clock_hours`]), the seed, the BGP
//! table and registry ([`Prober::prefix_of`], [`Prober::host_prefix`],
//! [`Prober::block_owner`], [`Prober::as_prefixes`], [`Prober::prefix`]),
//! a prefix's hitlist ([`Prober::host_addrs`]) and the simulator's byte
//! ledgers. The survey's sink trees ([`SurveyTrees`], [`ReplyTree`]) and the
//! `poisoned_atlas` scenario sit behind [`Round`]'s probes. The engine,
//! the survey, the atlas and the service read nothing else of the world;
//! [`Prober::sim`] is for the `aliasing` dataset builders, the evaluation
//! and tests.
//!
//! # One attempt step, two loops
//!
//! Every probe goes out through one private attempt step. It counts the
//! send, and the retry past a probe's first attempt; draws the attempt's
//! faults at its send instant; draws the adversarial scenario for the
//! kinds that carry IP options (RR and TS, not pings or traceroutes); and
//! counts a loss. The attempt's nonce — what its loss draw and, for an
//! option-carrying probe, a per-packet load balancer hash — is a pure
//! function of the packet: kind, sender, claimed source, destination,
//! attempt number and the instant it leaves on its sender's clock. The
//! prober holds no nonce state, so a request's replies never depend on
//! what other requests sent. One of two loops drives the step, and the
//! three time rules are theirs:
//!
//! * the **chain** sends one probe until an attempt gets through or the
//!   [`RetryPolicy`]'s budget runs out. Each lost attempt waits its kind's
//!   timeout: [`PROBE_TIMEOUT_MS`], or [`TRACEROUTE_TIMEOUT_MS`] for
//!   traceroutes. A *serial* chain charges each wait as it happens and
//!   sends the next attempt at the clock's new reading; the attempt that
//!   gets through charges its own outcome (its RTT, or the timeout);
//! * a chain in a [`Round`] charges nothing: a member sent some delay into
//!   the round (0 unless it waits on another member's answer) sends its
//!   attempt `k` at the round's start plus that delay plus the waits
//!   before it, and the round charges its latest member's end, once, when
//!   it closes. The ingress survey sends a prefix's scan pings, and each
//!   destination's RR pings once its scan ping answered, as one round
//!   (§4.3); an atlas build sends a source's traceroutes, and each trace's
//!   RR-atlas pings once that trace's chain ends, as one round (§4.2);
//! * the **collection loop** sends a spoofed batch in rounds: each round
//!   sends one attempt per pair still lost, then charges one
//!   [`SPOOF_BATCH_TIMEOUT_MS`].
//!
//! # Metering
//!
//! Every charge — virtual time, a counted probe — goes through two private
//! helpers that charge the shared [`Clock`] / [`Counters`] *and* the
//! caller's [`Meter`]. The engine's entry points take the meter of the
//! request they probe for; everyone else calls the meterless wrappers
//! ([`Prober::ping`], [`Prober::rr_ping`], [`Prober::spoofed_rr_batch`],
//! [`Prober::traceroute_fresh`]), which charge a throw-away one anchored at
//! the shared clock's reading. A [`Round`] charges the shared clock alone.
//! A probe's sender's clock is what its nonce reads: the caller's meter
//! for a metered probe, the throw-away meter for a meterless one, and the
//! round's own instants for a round member.
//!
//! # Faults and retries
//!
//! When the sim's [`revtr_netsim::FaultConfig`] enables faults, individual
//! probe attempts can be lost (transient loss, ICMP rate limiting, VP
//! spoof-filter flaps). The prober re-sends fault-lost attempts up to the
//! budget of its [`RetryPolicy`], counting every re-send in
//! [`ProbeKind::Retries`] / every fault loss in [`ProbeKind::Lost`]. A
//! single probe whose budget runs out is counted in the
//! `probing.transient_exhausted` telemetry counter, a batch pair in
//! [`BatchReply::transient`]. Genuine unresponsiveness is deterministic
//! in-sim, so it is *not* retried: the budget is spent only where a real
//! retry could help, and a fault-free sim behaves bit-identically whatever
//! the budget is.

use crate::cache::{CachedRr, MeasurementCache, RrKey, LAST_LINK_ENTRY_BYTES, RR_ENTRY_BYTES};
use crate::clock::{Clock, SPOOF_BATCH_TIMEOUT_MS};
use crate::counters::{Counters, ProbeKind};
use crate::meter::Meter;
use revtr_netsim::hash::{mix2, mix3};
use revtr_netsim::{
    Addr, AsId, EchoReply, Prefix, PrefixId, RrReply, Sim, SinkTree, TraceResult, TsReply,
    TtlAnswer, TtlView,
};
use revtr_telemetry::Telemetry;
use serde::Serialize;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Timeout charged for an unanswered non-spoofed probe (virtual ms).
pub const PROBE_TIMEOUT_MS: f64 = 2_000.0;

/// Timeout charged for a traceroute that never completes (virtual ms).
pub const TRACEROUTE_TIMEOUT_MS: f64 = 5_000.0;

/// The retry budget: an *attempt budget* of `n` means one initial send
/// plus up to `n - 1` re-sends of fault-lost attempts, for every probe
/// kind (a spoofed batch re-collects its fault-lost pairs, each round
/// costing one batch collection timeout). The default budget, 1, disables
/// retrying entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::uniform(1)
    }
}

impl RetryPolicy {
    /// The same attempt budget (at least 1) for every probe kind.
    pub fn uniform(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
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
    /// Every attempt in the budget was lost, at least one of them to the
    /// scenario's policing of IP-option packets (a rate limiter or spoof
    /// filter): the path carried it, the option was what got it dropped,
    /// so a packet without options may still get an answer.
    Filtered,
}

/// Send-time provenance of one Record Route observation: everything the
/// audit layer needs to replay the probe's reply leg against the oracle
/// ([`revtr_netsim::oracle::Oracle::replay_rr_reply_stamps`]). A cache hit
/// carries the provenance of the *original* send — the stamps in the
/// cached reply were produced under that nonce and those churn epochs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
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

impl RrProvenance {
    /// What the exchange `ex` for `key` observed: its reply, with the
    /// provenance to replay it, or `None` if nothing answered.
    fn observed(key: RrKey, ex: CachedRr, from_cache: bool) -> Option<(RrReply, RrProvenance)> {
        let prov = RrProvenance {
            sender: key.sender,
            claimed: key.claimed,
            dst: key.dst,
            nonce: ex.nonce,
            fwd_epoch: ex.fwd_epoch.into(),
            rep_epoch: ex.rep_epoch.into(),
            from_cache,
        };
        ex.reply.map(|r| (r, prov))
    }
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
    /// Per-pair replies, in input order, each with the provenance to
    /// replay it (a cache hit carries the original send's); `None` = no
    /// reply.
    pub replies: Vec<Option<(RrReply, RrProvenance)>>,
    /// `transient[i]` is true when pair `i`'s misses were fault losses
    /// (its retry budget ran out) rather than genuine unresponsiveness.
    pub transient: Vec<bool>,
    /// Collection timeouts actually charged (0 for an empty or fully
    /// cached batch; > 1 when fault-lost pairs were re-collected).
    pub timeouts: u32,
}

/// One probe as its attempts draw their fates: its kind, the VP that
/// spoofs it (if any), the source it claims, its destination, and the
/// attempt number its first attempt draws.
#[derive(Clone, Copy)]
struct Probe {
    kind: ProbeKind,
    spoof_vp: Option<Addr>,
    claimed: Addr,
    dst: Addr,
    base: u32,
}

impl Probe {
    fn new(kind: ProbeKind, spoof_vp: Option<Addr>, claimed: Addr, dst: Addr) -> Probe {
        Probe {
            kind,
            spoof_vp,
            claimed,
            dst,
            base: 0,
        }
    }

    /// The nonce of attempt `k`, leaving at `at_ms` on its sender's clock:
    /// a pure function of the packet — kind, sender, claimed source,
    /// destination, attempt number and send instant — so which path a
    /// per-packet load balancer gives it, and whether it is lost, never
    /// depends on what else was sent.
    fn nonce(&self, k: u32, at_ms: f64) -> u64 {
        let sender = self.spoof_vp.unwrap_or(self.claimed);
        let [sender, claimed, dst] = [sender, self.claimed, self.dst].map(|a| u64::from(a.0));
        let from = mix3(self.kind as u64, sender, claimed);
        mix3(from, mix2(dst, u64::from(self.base + k)), at_ms.to_bits())
    }
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
            telemetry: Telemetry::disabled(),
        }
    }

    /// Same shared state, with caching toggled (the Table 4 "cache"
    /// ablation knob). A system built on a cache-off prober stays
    /// cache-off: `EngineConfig::use_cache` can turn caching off, never
    /// back on.
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

    /// The simulator this prober probes: ground truth. The request plane
    /// reads the world through the deployment reads below instead; this
    /// is for the `aliasing` dataset builders, the evaluation and tests.
    pub fn sim(&self) -> &'s Sim {
        self.sim
    }

    // ---- what a deployment can read -------------------------------------------

    /// The virtual hour the simulator has been flushed to: when a
    /// measurement happened, for staleness.
    pub fn now_hours(&self) -> f64 {
        self.sim.now_hours()
    }

    /// The virtual hour including the clock's unflushed charges: the
    /// admission layer's day boundaries, exact whatever the flush state.
    pub fn clock_hours(&self) -> f64 {
        self.sim.now_hours() + self.clock.pending_ms() / 3_600_000.0
    }

    /// Whether every probe's fate is a function of the packet and its send
    /// instant alone, so that probes sent from several threads at once get
    /// the answers they would get one after another: false under an armed
    /// ICMP rate limiter, whose token buckets answer in the order replies
    /// are generated ([`revtr_netsim::FaultConfig::icmp_rate_limit_pps`]).
    pub fn order_free(&self) -> bool {
        self.sim.faults().config().icmp_rate_limit_pps <= 0.0
    }

    /// The deployment's seed: what its random draws (atlas probes,
    /// set-cover ties) are keyed on.
    pub fn seed(&self) -> u64 {
        self.sim.seed()
    }

    /// The announced prefix `host` is a host address of: the one covering
    /// it (BGP table), unless `host` is that prefix's network address.
    pub fn host_prefix(&self, host: Addr) -> Option<PrefixId> {
        self.sim.host_prefix(host)
    }

    /// The announced prefix covering `addr` (BGP table), if any.
    pub fn prefix_of(&self, addr: Addr) -> Option<PrefixId> {
        self.sim.topo().prefix_of(addr)
    }

    /// The AS the address block holding `addr` is registered to (RIR
    /// registry), if any.
    pub fn block_owner(&self, addr: Addr) -> Option<AsId> {
        self.sim.topo().block_owner(addr)
    }

    /// The prefixes `asn` announces, in its announcement order (BGP
    /// table).
    pub fn as_prefixes(&self, asn: AsId) -> &'s [PrefixId] {
        &self.sim.topo().asn(asn).prefixes
    }

    /// Prefix `p`'s address range (BGP table).
    pub fn prefix(&self, p: PrefixId) -> Prefix {
        self.sim.topo().prefix(p).prefix
    }

    /// The host addresses of prefix `p` a scan walks, in order (a
    /// hitlist).
    pub fn host_addrs(&self, p: PrefixId) -> impl Iterator<Item = Addr> + 's {
        self.sim.host_addrs(p)
    }

    /// The simulator's own byte ledgers, named for the telemetry ledger
    /// registry: its route cache, border-router table and IGP FIBs.
    pub fn sim_ledgers(&self) -> [(&'static str, u64); 3] {
        [
            ("netsim.route_cache", self.sim.route_cache_bytes()),
            ("netsim.border_cache", self.sim.border_cache_bytes()),
            ("netsim.fib", self.sim.fib_bytes()),
        ]
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

    /// The throw-away meter a meterless wrapper charges: its clock starts
    /// at the shared clock's reading, so its probes leave at that instant.
    fn meterless(&self) -> Meter {
        Meter::at(self.clock.now_ms())
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

    /// Draw the fault fate of one probe attempt toward `dst` under
    /// `nonce`, sent at virtual instant `sent_ms` on the shared clock
    /// (spoofed attempts also pass the sending VP for the flap check). The
    /// instant is what the destination's ICMP token bucket refills to; it
    /// is read — and any lock taken — only when faults are active.
    fn fault_lost(
        &self,
        spoof_vp: Option<Addr>,
        dst: Addr,
        nonce: u64,
        sent_ms: impl FnOnce() -> f64,
    ) -> bool {
        let faults = self.sim.faults();
        if !faults.any_enabled() {
            return false;
        }
        if faults.probe_lost(nonce) {
            return true;
        }
        if let Some(vp) = spoof_vp {
            if faults.vp_spoof_flapped(vp, self.sim.now_hours()) {
                return true;
            }
        }
        match self.sim.responder_router(dst) {
            Some(r) => !faults.icmp_allowed(r, sent_ms()),
            None => false,
        }
    }

    /// Draw the adversarial-scenario fate of one *option-carrying* probe
    /// attempt (RR/TS ride the router slow path, which is where spoof
    /// filters and asymmetric rate limiters bite). Unlike [`Prober::fault_lost`]
    /// this is pure in stable entity keys — it reads neither nonce nor
    /// clock — so cache hit/miss patterns stay schedule-invariant and
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

    /// The attempt step: send attempt `k` of probe `p`, leaving at `at_ms`
    /// on its sender's clock and at `sent_ms` on the shared one. Count the
    /// send, and the retry past the first attempt; draw its faults under
    /// its nonce ([`Probe::nonce`]), then — for the kinds that carry IP
    /// options — its scenario, as attempt `p.base + k`. Returns the nonce
    /// if the attempt got through, for its send to route under, or why it
    /// was lost (`Transient` to faults, `Filtered` to the scenario): the
    /// loss is counted here, its wait is the loop's to charge.
    fn attempt(
        &self,
        m: &mut Meter,
        p: Probe,
        k: u32,
        at_ms: f64,
        sent_ms: impl FnOnce() -> f64,
    ) -> Result<u64, ProbeLoss> {
        if k > 0 {
            self.count(m, ProbeKind::Retries, 1);
            self.telemetry.counter_add("probing.retries", 1);
        }
        self.count(m, p.kind, 1);
        let nonce = p.nonce(k, at_ms);
        let options = !matches!(p.kind, ProbeKind::Ping | ProbeKind::Traceroutes);
        let lost = if self.fault_lost(p.spoof_vp, p.dst, nonce, sent_ms) {
            ProbeLoss::Transient
        } else if options && self.scenario_lost(p.spoof_vp, p.claimed, p.dst, p.base + k) {
            ProbeLoss::Filtered
        } else {
            return Ok(nonce);
        };
        self.count(m, ProbeKind::Lost, 1);
        self.telemetry.counter_add("probing.fault_lost", 1);
        Err(lost)
    }

    /// The chain loop: send probe `p` until an attempt gets through or the
    /// budget runs out, each lost attempt waiting the kind's timeout. A
    /// serial chain (`round_start` `None`) charges each wait as it happens
    /// and sends the next attempt at its meter's and the shared clock's new
    /// readings; a round member's chain charges nothing and sends attempt
    /// `k` at `round_start` plus the waits before it. `send` sends the
    /// attempt that got through, under that attempt's nonce, and charges
    /// its own outcome. Returns what `send` returned — or, when every
    /// attempt was lost, `Filtered` if the scenario dropped any of them and
    /// `Transient` if faults took them all — and the time the chain waited
    /// on lost attempts.
    fn chain<R>(
        &self,
        m: &mut Meter,
        p: Probe,
        round_start: Option<f64>,
        send: impl FnOnce(&mut Meter, u64) -> R,
    ) -> (Result<R, ProbeLoss>, f64) {
        let timeout_ms = match p.kind {
            ProbeKind::Traceroutes => TRACEROUTE_TIMEOUT_MS,
            _ => PROBE_TIMEOUT_MS,
        };
        let (mut waited_ms, mut loss) = (0.0, ProbeLoss::Transient);
        for k in 0..self.retry.attempts {
            let at_ms = round_start.map_or(m.ms, |t| t + waited_ms);
            let sent_ms = || round_start.map_or_else(|| self.clock.now_ms(), |_| at_ms);
            match self.attempt(m, p, k, at_ms, sent_ms) {
                Ok(nonce) => return (Ok(send(m, nonce)), waited_ms),
                Err(ProbeLoss::Filtered) => loss = ProbeLoss::Filtered,
                Err(_) => {}
            }
            waited_ms += timeout_ms;
            if round_start.is_none() {
                self.advance(m, timeout_ms);
            }
        }
        self.telemetry.counter_add("probing.transient_exhausted", 1);
        (Err(loss), waited_ms)
    }

    /// The collection loop: send spoofed probes in rounds until every pair
    /// got through or the budget runs out. `lost[i]` marks pair `i` as
    /// still to send (probe `probe(i)`); each round sends one attempt per
    /// marked pair, in order, at the meter's reading, clearing the mark of
    /// — and calling `send` for — each that got through, under its nonce,
    /// then charges one [`SPOOF_BATCH_TIMEOUT_MS`]. Marks left standing ran
    /// out of budget. Returns the rounds charged.
    fn collect(
        &self,
        m: &mut Meter,
        lost: &mut [bool],
        probe: impl Fn(usize) -> Probe,
        mut send: impl FnMut(&mut Meter, usize, u64),
    ) -> u32 {
        let mut rounds = 0;
        let now = || self.clock.now_ms();
        while rounds < self.retry.attempts && lost.contains(&true) {
            let at_ms = m.ms;
            for (i, marked) in lost.iter_mut().enumerate().filter(|(_, marked)| **marked) {
                if let Ok(nonce) = self.attempt(m, probe(i), rounds, at_ms, now) {
                    *marked = false;
                    send(m, i, nonce);
                }
            }
            rounds += 1;
            self.advance(m, SPOOF_BATCH_TIMEOUT_MS);
        }
        rounds
    }

    // ---- pings ------------------------------------------------------------

    /// Plain ping, retrying fault-lost attempts within budget.
    pub fn ping(&self, src: Addr, dst: Addr) -> Option<EchoReply> {
        self.ping_metered(&mut self.meterless(), src, dst)
    }

    /// [`Prober::ping`], charged to the caller's meter.
    pub fn ping_metered(&self, m: &mut Meter, src: Addr, dst: Addr) -> Option<EchoReply> {
        let p = Probe::new(ProbeKind::Ping, None, src, dst);
        let (r, _) = self.chain(m, p, None, |m, _| {
            let r = self.sim.ping(src, dst);
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
            r
        });
        r.ok().flatten()
    }

    // ---- record route -------------------------------------------------------

    /// Non-spoofed RR ping from `src`, reusing a fresh cached result when
    /// caching is enabled. Collapses [`Prober::rr_ping_observed`]'s loss
    /// attribution and provenance.
    pub fn rr_ping(&self, src: Addr, dst: Addr) -> Option<RrReply> {
        self.rr_ping_observed(&mut self.meterless(), src, dst)
            .ok()
            .map(|(r, _)| r)
    }

    /// Non-spoofed RR ping with the send-time provenance needed to replay
    /// the observation (stitch-trace audit), charged to `m`, distinguishing
    /// *why* it failed: genuinely unanswered (persistent), fault-lost
    /// beyond the retry budget (transient), or dropped for its option
    /// (filtered).
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
        if let Some(hit) = self.rr_lookup(key) {
            return hit.ok_or(ProbeLoss::Unanswered);
        }
        let p = Probe::new(ProbeKind::Rr, None, src, dst);
        let (kept, _) = self.chain(m, p, None, |m, nonce| {
            let ex = self.rr_exchange(key, nonce);
            // Charge, then keep: the put stamps the sim's hour, which the
            // charge can move forward.
            self.charge(m, ex.reply.as_ref().map(|x| x.rtt_ms));
            self.rr_keep(m, key, ex)
        });
        kept?.ok_or(ProbeLoss::Unanswered)
    }

    /// The measurement cache's fresh observation for `key`, when caching
    /// is enabled: `Some(None)` is a cached non-answer.
    fn rr_lookup(&self, key: RrKey) -> Option<Option<(RrReply, RrProvenance)>> {
        if !self.use_cache {
            return None;
        }
        let hit = self.cache.get_rr(self.sim, key)?;
        Some(RrProvenance::observed(key, hit, true))
    }

    /// One live Record Route exchange for `key` under `nonce`: the nonce,
    /// the churn epochs of the (destination, claimed source) prefixes —
    /// read right before the send, since a charge can flush virtual hours
    /// into the sim and bump them — and the reply.
    fn rr_exchange(&self, key: RrKey, nonce: u64) -> CachedRr {
        let epoch = |a| self.sim.host_prefix(a).map(|p| self.sim.prefix_epoch(p));
        let (fwd_epoch, rep_epoch) = (epoch(key.dst), epoch(key.claimed));
        CachedRr {
            reply: self
                .sim
                .rr_ping_from(key.sender, key.claimed, key.dst, nonce),
            nonce,
            fwd_epoch,
            rep_epoch,
        }
    }

    /// Keep a live exchange: in the cache when caching is enabled — genuine
    /// outcomes only, a fault loss never gets here to be negative-cached —
    /// and as the observation it returns.
    fn rr_keep(&self, m: &mut Meter, key: RrKey, ex: CachedRr) -> Option<(RrReply, RrProvenance)> {
        if self.use_cache {
            self.count(m, ProbeKind::CacheBytes, RR_ENTRY_BYTES);
            self.cache.put_rr(self.sim, key, ex.clone());
        }
        RrProvenance::observed(key, ex, false)
    }

    /// Open one collection round: probes go out together, each as soon as
    /// the answer it waits on (if any) is in — a prefix's §4.3 ingress
    /// survey, a source's §4.2 atlas build — and the round costs the
    /// virtual time of its latest member's end, charged to the shared
    /// clock once, when the returned handle drops.
    pub fn round(&self) -> Round<'_, 's> {
        Round {
            prober: self,
            trees: None,
            start_ms: self.clock.now_ms(),
            longest_ms: 0.0,
            owner: true,
        }
    }

    /// A part of a round that opened at `start_ms` ([`Round::start_ms`]),
    /// for a thread to drive some of the round's members in, lending its
    /// forward `trees` to their RR pings: its members go out at the
    /// instants they would in the round itself, and it charges nothing —
    /// the round's owner joins its end ([`Round::join`]) and charges once.
    pub fn round_part<'p>(
        &'p self,
        start_ms: f64,
        mut trees: Option<&'p mut SurveyTrees>,
    ) -> Round<'p, 's> {
        if let Some(trees) = trees.as_deref_mut() {
            trees.open();
        }
        Round {
            prober: self,
            trees,
            start_ms,
            longest_ms: 0.0,
            owner: false,
        }
    }

    /// A batch of spoofed RR pings, all claiming source `claimed`, one per
    /// `(vantage point, destination)` pair. Each *collection round* costs
    /// one 10-second timeout of virtual time (§5.2.4), which is what makes
    /// batch count the dominant latency factor (Fig. 5c); fault-lost pairs
    /// are re-collected for up to the [`RetryPolicy`]'s attempt budget of
    /// rounds.
    /// An empty or fully cached batch costs nothing.
    pub fn spoofed_rr_batch(&self, pairs: &[(Addr, Addr)], claimed: Addr) -> BatchReply {
        let mut out = BatchReply::default();
        self.spoofed_rr_batch_at(&mut self.meterless(), pairs, claimed, &[], &mut out);
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
        let BatchReply {
            replies,
            transient,
            timeouts,
        } = out;
        let key = |i: usize| RrKey {
            sender: pairs[i].0,
            claimed,
            dst: pairs[i].1,
        };
        replies.clear();
        transient.clear();
        for i in 0..pairs.len() {
            let hit = self.rr_lookup(key(i));
            // A miss is still to send: the collection loop's mark.
            transient.push(hit.is_none());
            replies.push(hit.flatten());
        }
        let n = pairs.len();
        if self.telemetry.is_enabled() && n > 0 {
            let cached = transient.iter().filter(|&&t| !t).count();
            self.telemetry.counter_add("probing.batches", 1);
            self.telemetry.record("probing.batch.pairs", n as u64);
            self.telemetry
                .counter_add("probing.batch.cached_pairs", cached as u64);
        }
        let probe = |i: usize| Probe {
            base: attempt_base.get(i).copied().unwrap_or(0),
            ..Probe::new(ProbeKind::SpoofRr, Some(pairs[i].0), claimed, pairs[i].1)
        };
        *timeouts = self.collect(m, transient, probe, |m, i, nonce| {
            replies[i] = self.rr_keep(m, key(i), self.rr_exchange(key(i), nonce));
        });
        if self.telemetry.is_enabled() && n > 0 {
            self.telemetry
                .record("probing.batch.rounds", u64::from(*timeouts));
            self.telemetry
                .counter_add("probing.batch.timeouts", u64::from(*timeouts));
        }
    }

    // ---- timestamp -------------------------------------------------------------

    /// Non-spoofed TS-prespec ping distinguishing persistent from
    /// budget-exhausted (transient or filtered) failure, charged to `m`.
    pub fn ts_ping_outcome(
        &self,
        m: &mut Meter,
        src: Addr,
        dst: Addr,
        prespec: &[Addr],
    ) -> Result<TsReply, ProbeLoss> {
        let p = Probe::new(ProbeKind::Ts, None, src, dst);
        let (r, _) = self.chain(m, p, None, |m, nonce| {
            let r = self.sim.ts_ping_from(src, src, dst, prespec, nonce);
            self.charge(m, r.as_ref().map(|x| x.rtt_ms));
            r
        });
        r?.ok_or(ProbeLoss::Unanswered)
    }

    /// A spoofed TS-prespec ping from `vp` claiming `claimed`, collected
    /// as a batch of one: one collection timeout a round, as for
    /// [`Prober::spoofed_rr_batch`], re-collected while fault-lost within
    /// the [`RetryPolicy`]'s attempt budget. Charged to `m`.
    pub fn spoofed_ts_ping(
        &self,
        m: &mut Meter,
        vp: Addr,
        claimed: Addr,
        dst: Addr,
        prespec: &[Addr],
    ) -> Option<TsReply> {
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("probing.ts_batches", 1);
            self.telemetry.record("probing.ts_batch.pairs", 1);
        }
        let p = Probe::new(ProbeKind::SpoofTs, Some(vp), claimed, dst);
        let mut reply = None;
        self.collect(
            m,
            &mut [true],
            |_| p,
            |_, _, nonce| reply = self.sim.ts_ping_from(vp, claimed, dst, prespec, nonce),
        );
        reply
    }

    // ---- traceroute --------------------------------------------------------------

    /// The Paris flow id every TTL probe from `src` to `dst` carries.
    pub fn paris_flow(src: Addr, dst: Addr) -> u16 {
        (mix2(src.0 as u64, dst.0 as u64) & 0xFFFF) as u16
    }

    /// A full (Paris) traceroute, TTL 1 upward, serial on the shared
    /// clock. Never cached; an atlas build sends its traceroutes through
    /// [`Round::traceroute`] instead.
    pub fn traceroute_fresh(&self, src: Addr, dst: Addr) -> Option<TraceResult> {
        let p = Probe::new(ProbeKind::Traceroutes, None, src, dst);
        let (r, _) = self.chain(&mut self.meterless(), p, None, |m, _| {
            let (r, ms) = self.trace_once(m, src, dst);
            self.advance(m, ms);
            r
        });
        r.ok().flatten()
    }

    /// One traceroute attempt that got through: the trace, its packets
    /// counted, and its outcome's time — the trace's RTT, or
    /// [`TRACEROUTE_TIMEOUT_MS`] when nothing routes to `dst`.
    fn trace_once(&self, m: &mut Meter, src: Addr, dst: Addr) -> (Option<TraceResult>, f64) {
        let r = self.sim.traceroute(src, dst, Self::paris_flow(src, dst));
        let ms = match &r {
            Some(t) => {
                self.count(m, ProbeKind::TraceroutePkts, t.hops.len() as u64);
                t.rtt_ms
            }
            None => TRACEROUTE_TIMEOUT_MS,
        };
        (r, ms)
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
        let p = Probe::new(ProbeKind::Traceroutes, None, src, cur);
        let (r, _) = self.chain(m, p, None, |m, _| {
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
                // Genuine outcomes only, as for RR: a fault loss never
                // gets here to be negative-cached.
                self.count(m, ProbeKind::CacheBytes, LAST_LINK_ENTRY_BYTES);
                self.cache
                    .put_last_link(self.sim, src, cur, measured.map(|(link, _)| link));
            }
            measured
        });
        r.ok().flatten()
    }
}

/// The forward sink trees one worker of a survey over many prefixes lends
/// its RR pings ([`Prober::round_part`]): the forward walks of one prefix
/// converge on its destinations. Lending changes no walk, only how much of
/// it is read instead of derived.
pub struct SurveyTrees {
    /// One tree per destination of a round, each with the destination the
    /// open round lent it to (rebound by each round's destinations).
    forward: Vec<(Option<Addr>, SinkTree)>,
}

impl SurveyTrees {
    /// Empty trees for a survey that pings at most `dests` destinations a
    /// round.
    pub fn new(prober: &Prober<'_>, dests: usize) -> SurveyTrees {
        let mut forward = Vec::with_capacity(dests);
        forward.extend((0..dests).map(|_| (None, SinkTree::new(prober.sim))));
        SurveyTrees { forward }
    }

    /// A new round: every tree is free to lend.
    fn open(&mut self) {
        for (lent, _) in &mut self.forward {
            *lent = None;
        }
    }

    /// The tree lent to `dst` this round; a destination new to the round
    /// takes the next free one. `None` past the round's count.
    fn lend(&mut self, dst: Addr) -> Option<&mut SinkTree> {
        let forward = &mut self.forward;
        let at = (forward.iter().position(|&(lent, _)| lent == Some(dst)))
            .or_else(|| forward.iter().position(|&(lent, _)| lent.is_none()))?;
        let (lent, tree) = &mut forward[at];
        *lent = Some(dst);
        Some(tree)
    }
}

/// One survey VP's reply sink tree: every prefix's replies walk back to the
/// VP, so the tree lives across rounds (until churn re-rolls the VP's own
/// prefix), lent to the reply legs of the VP's RR pings
/// ([`Round::rr_ping_from`]). It also keeps the VP's last legs, which the
/// VP's ping to a prefix's second destination replays.
pub struct ReplyTree {
    vp: Addr,
    tree: SinkTree,
}

impl ReplyTree {
    /// An empty reply tree for `vp`'s RR pings.
    pub fn new(prober: &Prober<'_>, vp: Addr) -> ReplyTree {
        ReplyTree {
            vp,
            tree: SinkTree::new(prober.sim),
        }
    }

    /// The VP whose pings it serves.
    pub fn vp(&self) -> Addr {
        self.vp
    }
}

/// One collection round, opened by [`Prober::round`]: a prefix's ingress
/// survey (§4.3) — its scan pings, and each destination's RR pings once
/// that destination answered — or a source's atlas build (§4.2). Each
/// member keeps its own attempt chain — its kind's timeout per fault-lost
/// attempt, then the reply's RTT, or the timeout if nothing answers — sent
/// some delay into the round (0 for a member that waits on nothing), and
/// the round ends with its latest member's end. Dropping the handle closes
/// the round and charges that end to the shared clock, once: no churn
/// flush, and no other probe's time, falls between a round's probes.
///
/// A round may be driven in parts ([`Prober::round_part`]): members sent
/// through a part go out at the instants they would through the round, the
/// part charges nothing, and the round's owner joins each part's end
/// ([`Round::join`]) before it closes — so the round still charges once.
pub struct Round<'p, 's> {
    prober: &'p Prober<'s>,
    /// A survey worker's forward trees, lent to its RR pings.
    trees: Option<&'p mut SurveyTrees>,
    /// The shared clock when the round opened.
    start_ms: f64,
    /// The latest member's end so far, from the round's start.
    longest_ms: f64,
    /// Whether closing charges the clock: the round's own handle does, a
    /// part does not.
    owner: bool,
}

impl Round<'_, '_> {
    /// The shared clock's reading when the round opened: where its parts
    /// start ([`Prober::round_part`]).
    pub fn start_ms(&self) -> f64 {
        self.start_ms
    }

    /// The latest member's end so far, in ms from the round's start.
    pub fn end_ms(&self) -> f64 {
        self.longest_ms
    }

    /// Count a part's members in this round: it ends no earlier than
    /// `end_ms` (a part's [`Round::end_ms`]) past its start.
    pub fn join(&mut self, end_ms: f64) {
        self.longest_ms = self.longest_ms.max(end_ms);
    }

    /// One member: probe `p`'s attempt chain, sent `after_ms` into the
    /// round, so attempt `k` draws its faults at the round's start plus
    /// `after_ms` plus the timeouts the chain has waited, and an ICMP
    /// token bucket refills between its retries. `send` sends the attempt
    /// that got through, under its nonce, and returns it with its outcome's
    /// time. Returns what `send` returned (`None`: every attempt was lost)
    /// and the chain's length: its waits, then the outcome's time.
    fn member<R>(
        &mut self,
        after_ms: f64,
        p: Probe,
        send: impl FnOnce(&mut Meter, u64) -> (R, f64),
    ) -> (Option<R>, f64) {
        let start = Some(self.start_ms + after_ms);
        let (r, waited_ms) = self.prober.chain(&mut Meter::default(), p, start, send);
        let (r, outcome_ms) = r.map_or((None, 0.0), |(r, ms)| (Some(r), ms));
        let chain_ms = waited_ms + outcome_ms;
        self.longest_ms = self.longest_ms.max(after_ms + chain_ms);
        (r, chain_ms)
    }

    /// One survey scan ping (§4.3), sent `after_ms` into the round: the
    /// probe [`Prober::ping`] sends. Returns the reply and the chain's
    /// length, so the reply came in at `after_ms` plus that length.
    pub fn ping(&mut self, after_ms: f64, src: Addr, dst: Addr) -> (Option<EchoReply>, f64) {
        let p = self.prober;
        let probe = Probe::new(ProbeKind::Ping, None, src, dst);
        let (r, chain_ms) = self.member(after_ms, probe, |_, _| {
            let r = p.sim.ping(src, dst);
            let ms = r.as_ref().map_or(PROBE_TIMEOUT_MS, |x| x.rtt_ms);
            (r, ms)
        });
        (r.flatten(), chain_ms)
    }

    /// One survey RR ping, sent `after_ms` into the round (when its
    /// destination's scan ping answered): the probe [`Prober::rr_ping`]
    /// sends on a cache-disabled handle — same counters, same fault and
    /// scenario draws, and the nonce that probe would carry if it left at
    /// this member's instant — but never near the measurement cache (a
    /// VP→scan-destination ping is one no measurement re-issues), with no
    /// replay provenance (nothing audits the survey), and lending the
    /// part's forward tree for `dst`, if it has trees, to the walk there.
    pub fn rr_ping(&mut self, after_ms: f64, src: Addr, dst: Addr) -> Option<RrReply> {
        self.survey_rr_ping(after_ms, src, dst, None)
    }

    /// [`Round::rr_ping`] from `vp`'s VP, lending its reply tree to the
    /// walk back.
    pub fn rr_ping_from(
        &mut self,
        after_ms: f64,
        vp: &mut ReplyTree,
        dst: Addr,
    ) -> Option<RrReply> {
        self.survey_rr_ping(after_ms, vp.vp, dst, Some(&mut vp.tree))
    }

    fn survey_rr_ping(
        &mut self,
        after_ms: f64,
        src: Addr,
        dst: Addr,
        reply: Option<&mut SinkTree>,
    ) -> Option<RrReply> {
        let p = self.prober;
        let probe = Probe::new(ProbeKind::Rr, None, src, dst);
        let mut trees = self.trees.take();
        let forward = trees.as_deref_mut().and_then(|t| t.lend(dst));
        let (r, _) = self.member(after_ms, probe, |_, nonce| {
            let r = p.sim.rr_ping_lent(src, dst, nonce, forward, reply);
            let ms = r.as_ref().map_or(PROBE_TIMEOUT_MS, |x| x.rtt_ms);
            (r, ms)
        });
        self.trees = trees;
        r.flatten()
    }

    /// One atlas traceroute (§4.2), at the round's start: the probe
    /// [`Prober::traceroute_fresh`] sends. Returns the trace and its chain's
    /// length, which is when the trace's RR-atlas pings can go out.
    ///
    /// Under the `poisoned_atlas` scenario, a corrupted measurement
    /// pipeline may substitute an interior hop of the trace as it comes
    /// back: the atlas stores and indexes it unknowingly, and only the
    /// audit catches the splice in a stitched path.
    pub fn traceroute(&mut self, src: Addr, dst: Addr) -> (Option<TraceResult>, f64) {
        let p = self.prober;
        let probe = Probe::new(ProbeKind::Traceroutes, None, src, dst);
        let (r, chain_ms) = self.member(0.0, probe, |m, _| p.trace_once(m, src, dst));
        let mut trace = r.flatten();
        if let Some(t) = &mut trace {
            p.sim.scenario_poison_trace(src, dst, &mut t.hops);
        }
        (trace, chain_ms)
    }

    /// One RR ping of the background RR-atlas (§4.2), sent `after_ms` into
    /// the round: Record Route semantics, counted in its own
    /// [`ProbeKind::AtlasRr`] budget, never cached. A `sender` other than
    /// `claimed` spoofs it.
    pub fn atlas_rr_ping(
        &mut self,
        after_ms: f64,
        sender: Addr,
        claimed: Addr,
        dst: Addr,
    ) -> Option<RrReply> {
        let p = self.prober;
        let spoof_vp = (sender != claimed).then_some(sender);
        let probe = Probe::new(ProbeKind::AtlasRr, spoof_vp, claimed, dst);
        let (r, _) = self.member(after_ms, probe, |_, nonce| {
            let r = p.sim.rr_ping_from(sender, claimed, dst, nonce);
            let ms = r.as_ref().map_or(PROBE_TIMEOUT_MS, |x| x.rtt_ms);
            (r, ms)
        });
        r.flatten()
    }
}

impl Drop for Round<'_, '_> {
    fn drop(&mut self) {
        // A round abandoned by a panic charges nothing: a flush into a
        // simulator the panic left half-updated could panic again here. A
        // part's end is its owner's to charge.
        if std::thread::panicking() || !self.owner {
            return;
        }
        self.prober.advance(&mut Meter::default(), self.longest_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::{ScenarioConfig, ScenarioProfile, SimConfig};

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 21)
    }

    /// Every deployment read is the simulator's own answer, over every
    /// prefix of a tiny world and a sample of its addresses: hosts, every
    /// prefix's network and gateway address, router interfaces, loopbacks
    /// and private aliases, and addresses outside every block.
    #[test]
    fn deployment_reads_forward_the_simulator() {
        let s = sim();
        let p = Prober::new(&s);
        let topo = s.topo();
        assert_eq!(p.seed(), s.seed());
        let mut sample: Vec<Addr> = vec![Addr(0), Addr(u32::MAX), Addr::new(10, 0, 0, 9)];
        for pe in &topo.prefixes {
            assert_eq!(p.prefix(pe.id), pe.prefix);
            assert!(p.host_addrs(pe.id).eq(s.host_addrs(pe.id)));
            sample.extend([pe.prefix.base, s.prefix_gateway(pe.id)]);
            sample.extend(s.host_addrs(pe.id).step_by(60));
        }
        for a in &topo.ases {
            assert_eq!(p.as_prefixes(a.id), &a.prefixes[..]);
        }
        for r in topo.routers.iter().step_by(3) {
            sample.extend([r.loopback, r.private_alias]);
        }
        sample.extend(
            topo.links
                .iter()
                .step_by(5)
                .flat_map(|l| [l.addr_a, l.addr_b]),
        );
        for &a in &sample {
            assert_eq!(p.host_prefix(a), s.host_prefix(a), "{a}");
            assert_eq!(p.prefix_of(a), topo.prefix_of(a), "{a}");
            assert_eq!(p.block_owner(a), topo.block_owner(a), "{a}");
        }
        // Time, flushed and pending, across 25 s charges, one of which
        // flushes a virtual minute into the simulator.
        for _ in 0..4 {
            let hours = p.clock().pending_ms() / 3_600_000.0;
            assert_eq!(p.now_hours().to_bits(), s.now_hours().to_bits());
            assert_eq!(p.clock_hours().to_bits(), (s.now_hours() + hours).to_bits());
            p.clock().advance(25_000.0, &s);
        }
        assert!(s.now_hours() > 0.0, "no charge flushed into the simulator");
        let ledgers = [
            ("netsim.route_cache", s.route_cache_bytes()),
            ("netsim.border_cache", s.border_cache_bytes()),
            ("netsim.fib", s.fib_bytes()),
        ];
        assert_eq!(p.sim_ledgers(), ledgers);
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
        p.spoofed_ts_ping(m, vp1, vp0, vp2, &[vp2]);
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
        // A hit replays the first send: its reply, under the original
        // nonce and epochs, marked as served from the cache.
        assert!(
            first.replies.iter().any(Option::is_some),
            "nothing answered"
        );
        for (fresh, hit) in first.replies.iter().zip(&second.replies) {
            assert_eq!(fresh.is_some(), hit.is_some());
            if let (Some((r, prov)), Some((hit_r, hit_prov))) = (fresh, hit) {
                assert_eq!(r, hit_r);
                assert!(!prov.from_cache);
                let replayed = RrProvenance {
                    from_cache: true,
                    ..*prov
                };
                assert_eq!(replayed, *hit_prov);
            }
        }
    }

    #[test]
    fn a_metered_nonce_does_not_depend_on_what_else_was_sent() {
        let s = sim();
        let vps: Vec<Addr> = s.topo().vp_sites.iter().map(|v| v.host).collect();
        let nonce = |p: &Prober<'_>| {
            let (_, prov) = p
                .rr_ping_observed(&mut Meter::default(), vps[0], vps[1])
                .expect("VPs answer RR");
            prov.nonce
        };
        let fresh = Prober::new(&s).with_cache_enabled(false);
        let busy = Prober::new(&s).with_cache_enabled(false);
        for i in 0..300 {
            let (src, dst) = (vps[i % vps.len()], vps[(i + 2) % vps.len()]);
            busy.ping(src, dst);
            busy.rr_ping(src, dst);
        }
        assert_eq!(busy.counters().snapshot().rr, 300);
        assert_eq!(nonce(&busy), nonce(&fresh));
    }

    #[test]
    fn repeated_meterless_batches_carry_new_nonces() {
        // Appx. E's load-balancer exclusion re-probes one tuple and needs
        // each repeat to route under a nonce of its own: the second batch
        // leaves a collection timeout after the first, on the shared clock.
        let s = sim();
        let p = Prober::new(&s).with_cache_enabled(false);
        let vps: Vec<Addr> = s.topo().vp_sites.iter().map(|v| v.host).collect();
        let pairs = [(vps[1], vps[2]), (vps[2], vps[1])];
        let nonces = || -> Vec<u64> {
            let b = p.spoofed_rr_batch(&pairs, vps[0]);
            b.replies
                .iter()
                .flatten()
                .map(|(_, prov)| prov.nonce)
                .collect()
        };
        let (first, second) = (nonces(), nonces());
        assert_eq!(first.len(), pairs.len(), "every pair answers");
        assert_eq!(second.len(), pairs.len());
        for (a, b) in first.iter().zip(&second) {
            assert_ne!(a, b, "a repeated batch reused a nonce");
        }
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
            p.rr_ping_observed(&mut Meter::default(), vp0, vp1),
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
            p2.rr_ping_observed(&mut Meter::default(), vp, Addr::new(10, 9, 9, 9)),
            Err(ProbeLoss::Unanswered)
        );
        let d = p2.counters().snapshot().since(&before);
        assert_eq!(d.rr, 1, "deterministic non-answers are not retried");
        assert_eq!(d.retries, 0);
    }

    #[test]
    fn outcome_tells_an_option_filter_from_a_fault() {
        // Every destination a rate limiter: the direct RR pings it drops
        // are `Filtered`, not `Transient`, and the plain ping to the same
        // destination, carrying no option, gets through.
        let mut cfg = SimConfig::tiny();
        cfg.scenario = ScenarioConfig::profile_at(ScenarioProfile::AsymmetricRateLimiters, 1.0);
        let s = Sim::build(cfg, 24);
        let p = Prober::new(&s).with_cache_enabled(false);
        let vp0 = s.topo().vp_sites[0].host;
        let outcomes: Vec<_> = (s.topo().vp_sites[1..].iter())
            .map(|v| {
                (
                    v.host,
                    p.rr_ping_observed(&mut Meter::default(), vp0, v.host),
                )
            })
            .collect();
        let filtered: Vec<Addr> = (outcomes.iter())
            .filter(|(_, o)| *o == Err(ProbeLoss::Filtered))
            .map(|&(d, _)| d)
            .collect();
        assert!(!filtered.is_empty(), "the limiters dropped no RR ping");
        assert!(!outcomes
            .iter()
            .any(|(_, o)| *o == Err(ProbeLoss::Transient)));
        for d in filtered {
            assert!(
                p.ping(vp0, d).is_some(),
                "{d}: the plain ping is not policed"
            );
        }
    }

    #[test]
    fn a_survey_round_charges_its_slowest_ping_once() {
        let s = sim();
        let p = Prober::new(&s);
        let vps: Vec<Addr> = s.topo().vp_sites.iter().map(|v| v.host).collect();
        let t0 = p.clock().now_ms();
        let mut round = p.round();
        let mut longest: f64 = 0.0;
        for &dst in &vps[1..] {
            let r = round.rr_ping(0.0, vps[0], dst);
            longest = longest.max(r.map_or(PROBE_TIMEOUT_MS, |r| r.rtt_ms));
        }
        // A member sent once the slowest ping answered ends the round.
        let (reply, chain_ms) = round.ping(longest, vps[0], vps[1]);
        assert_eq!(chain_ms, reply.map_or(PROBE_TIMEOUT_MS, |r| r.rtt_ms));
        longest += chain_ms;
        assert_eq!(
            p.clock().now_ms(),
            t0,
            "nothing is charged while it is open"
        );
        drop(round);
        assert_eq!(p.clock().now_ms().to_bits(), (t0 + longest).to_bits());
        let snap = p.counters().snapshot();
        assert_eq!((snap.rr, snap.ping), (vps.len() as u64 - 1, 1));
    }

    #[test]
    fn a_round_bursts_at_a_router_limiter_and_retries_after_the_refill() {
        let mut cfg = SimConfig::tiny();
        cfg.faults.icmp_rate_limit_pps = 100.0;
        let s = Sim::build(cfg, 21);
        let src = s.topo().vp_sites[0].host;
        // A router interface that answers Record Route: its router's ICMP
        // limiter meters every reply.
        let hop = (s.topo().vp_sites.iter().skip(1))
            .filter_map(|far| s.traceroute(src, far.host, Prober::paris_flow(src, far.host)))
            .flat_map(|t| t.responsive_hops().collect::<Vec<_>>())
            .find(|&a| s.responder_router(a).is_some() && s.rr_ping(src, a, 0).is_some())
            .expect("a router on the way to a VP answers RR");
        // Sent at one instant, a round outruns the limiter's burst; a lost
        // ping's retry goes out a probe timeout later, after the bucket
        // has refilled, and is answered. (The bucket hears a round's draws
        // in send order, ping by ping: the first retry's refill also
        // serves the first attempts drawn after it.)
        let round_of = |attempts: u32| {
            // A fresh limiter (its bucket is the simulator's) and clock.
            let s = Sim::build(s.config().clone(), 21);
            let p = Prober::new(&s).with_retry_policy(RetryPolicy::uniform(attempts));
            let t0 = p.clock().now_ms();
            let mut round = p.round();
            let answered = (0..80)
                .filter(|_| round.rr_ping(0.0, src, hop).is_some())
                .count();
            drop(round);
            let snap = p.counters().snapshot();
            (answered, snap.lost, p.clock().now_ms() - t0)
        };
        let (answered, lost, round_ms) = round_of(1);
        assert!(
            lost > 0 && answered + lost as usize == 80,
            "{answered} answered, {lost} lost"
        );
        assert!((round_ms - PROBE_TIMEOUT_MS).abs() < 1e-6, "{round_ms} ms");
        let (answered, lost_retried, round_ms) = round_of(2);
        assert_eq!(answered, 80, "every retry is answered");
        assert!(lost_retried > 0);
        assert!(round_ms > PROBE_TIMEOUT_MS && round_ms < 2.0 * PROBE_TIMEOUT_MS);
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
        let (vp, dst) = (vps[1].host, vps[2].host);
        p.spoofed_ts_ping(&mut Meter::default(), vp, vps[0].host, dst, &[dst]);
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
