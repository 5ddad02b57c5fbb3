//! The traceroute atlas and the RR-atlas intersection index (Q1, Q2, §4.2).
//!
//! Per source, the atlas holds traceroutes from Atlas-like probes to the
//! source. A reverse traceroute that reaches any hop of an atlas traceroute
//! can be completed with that traceroute's suffix (destination-based
//! routing, Insight 1.1).
//!
//! The hard part is *detecting* the intersection: RR probes reveal egress /
//! loopback / private addresses while traceroute reveals ingress addresses,
//! so a reverse traceroute rarely shows the exact address the atlas knows.
//! revtr 2.0's answer (§4.2) is the **RR-atlas**: after each atlas
//! traceroute, RR-ping every hop from the source; the addresses stamped on
//! the *reply* path are exactly the RR-visible addresses a later reverse
//! traceroute would uncover, so they are indexed ahead of time.
//!
//! A build sees what a deployment sees: its probes and the hour through
//! the [`Prober`], alias evidence through the system's [`AliasResolver`],
//! and traces as the measurement pipeline returns them — poisoned, under
//! the `poisoned_atlas` scenario, by [`Round::traceroute`].

use revtr_aliasing::AliasResolver;
use revtr_netsim::Addr;
use revtr_probing::{Prober, Round, StopSet, WordMap};

/// The intersection index, keyed by simulated addresses. Its order never
/// escapes: `indexed_addrs`' one order-sensitive reader (`alias_index_for`
/// in `core`) keeps the lowest `(trace, hop)` per alias id.
type Index = WordMap<Addr, (Intersection, Priority)>;

/// Where an address intersects the atlas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Intersection {
    /// Trace index within the source's atlas.
    pub trace: usize,
    /// Hop index within the trace; the path to the source continues with
    /// the trace's suffix from this hop.
    pub hop: usize,
}

/// Priority of an index entry (higher wins on conflict).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Priority {
    /// An RR-revealed alias, /30-anchored to its trace position.
    PreciseAlias = 1,
    /// The traceroute hop address itself.
    Exact = 2,
}

/// One atlas traceroute.
#[derive(Clone, Debug)]
pub struct AtlasTrace {
    /// The Atlas probe (traceroute source; the *destination* direction of
    /// the reverse traceroutes this atlas serves).
    pub vp: Addr,
    /// Hops toward the revtr source (last entry is the source when
    /// reached).
    pub hops: Vec<Option<Addr>>,
    /// Virtual measurement time (hours), for staleness analysis.
    pub at_hours: f64,
}

/// The per-source atlas.
#[derive(Clone, Debug)]
pub struct SourceAtlas {
    /// The revtr source this atlas serves.
    pub source: Addr,
    /// Traceroutes from Atlas probes toward `source`.
    pub traces: Vec<AtlasTrace>,
    /// addr → best intersection.
    index: Index,
    /// Whether the RR-atlas pass ran (§4.2). Without it, intersections are
    /// exact-address only (plus whatever external alias data the engine
    /// consults — the revtr 1.0 mode).
    pub rr_atlas_enabled: bool,
}

impl SourceAtlas {
    /// Build an atlas for `source` from traceroutes issued by `probes`.
    ///
    /// When `rr_atlas` is set, every responsive router hop is RR-pinged
    /// from the source and the revealed reply-path aliases are indexed
    /// (charged to the `atlas_rr` background budget), `resolver`'s alias
    /// evidence deciding which router a doubled stamp belongs to. With a
    /// campaign forward-discovery set, each `(source, hop)` observation is
    /// looked up there before probing and recorded after, so interfaces
    /// shared by many atlas traces are RR-pinged once per campaign instead
    /// of once per trace. Indexing (alias anchoring) still runs per trace — only
    /// the probe itself is deduplicated.
    ///
    /// The build is one collection round ([`Prober::round`]): every
    /// traceroute goes out at the round's start, and a trace's RR-atlas
    /// pings once its chain ends. The round charges the shared clock
    /// once, its slowest trace plus that trace's slowest RR-atlas ping,
    /// and every trace is stamped with the hour the round opened at.
    /// Probes go out in trace order — traceroute `i`, then its RR pings,
    /// then traceroute `i + 1`. Each attempt's nonce, and with it its loss
    /// draw, is a function of the packet and its instant in the round, so
    /// that order moves no draw; only an ICMP token bucket hears it.
    pub fn build(
        prober: &Prober<'_>,
        resolver: &AliasResolver<'_>,
        source: Addr,
        probes: &[Addr],
        rr_atlas: bool,
        discovery: Option<&StopSet>,
    ) -> SourceAtlas {
        let mut atlas = SourceAtlas {
            source,
            traces: Vec::with_capacity(probes.len()),
            index: Index::default(),
            rr_atlas_enabled: rr_atlas,
        };
        let at_hours = prober.now_hours();
        let mut round = prober.round();
        for &vp in probes {
            let (trace, trace_ms) = round.traceroute(vp, source);
            let Some(t) = trace.filter(|t| t.reached) else {
                continue; // unusable: no suffix to the source
            };
            let idx = atlas.traces.len();
            atlas.traces.push(AtlasTrace {
                vp,
                hops: t.hops,
                at_hours,
            });
            atlas.index_trace(
                prober,
                resolver,
                idx,
                rr_atlas.then_some((&mut round, trace_ms)),
                discovery,
            );
        }
        drop(round);
        atlas
    }

    fn insert(&mut self, addr: Addr, inter: Intersection, prio: Priority) {
        if addr.is_private() || addr == self.source {
            return;
        }
        match self.index.get(&addr) {
            Some(&(_, old)) if old >= prio => {}
            _ => {
                self.index.insert(addr, (inter, prio));
            }
        }
    }

    /// Index trace `idx`'s hops, and — given the build's round and the
    /// trace's chain length, when the RR-atlas runs — RR-ping its router
    /// hops through the round once the trace is in, indexing what they
    /// reveal.
    fn index_trace(
        &mut self,
        prober: &Prober<'_>,
        resolver: &AliasResolver<'_>,
        idx: usize,
        rr_atlas: Option<(&mut Round<'_, '_>, f64)>,
        discovery: Option<&StopSet>,
    ) {
        // The trace's responsive hops, read in place: indexing writes
        // the index, never the traces.
        let n_hops = self.traces[idx].hops.len();
        for i in 0..n_hops {
            if let Some(a) = self.traces[idx].hops[i] {
                self.insert(a, Intersection { trace: idx, hop: i }, Priority::Exact);
            }
        }
        let Some((round, trace_ms)) = rr_atlas else {
            return;
        };
        // RR-atlas: RR-ping each hop from the source; everything revealed
        // after the hop's own stamp is a reverse-path address from that hop
        // toward the source.
        for i in 0..n_hops {
            let Some(a) = self.traces[idx].hops[i] else {
                continue;
            };
            if a == self.source || prober.host_prefix(a).is_some() {
                continue; // only router hops are worth probing
            }
            // Forward-discovery dedup: replay the campaign's existing RR
            // observation for this (source, hop) if there is one —
            // including "known unanswered" — and record fresh probes.
            let mut ping = || round.atlas_rr_ping(trace_ms, self.source, self.source, a);
            let reply = match discovery {
                Some(d) => match d.forward(self.source, a) {
                    Some(cached) => cached,
                    None => {
                        let fresh = ping();
                        d.forward_insert(self.source, a, fresh.clone());
                        fresh
                    }
                },
                None => ping(),
            };
            let Some(reply) = reply else {
                continue;
            };
            let inter = Intersection { trace: idx, hop: i };
            // Locate the destination's own stamp: the last occurrence of
            // the probed address (the forward leg can traverse the probed
            // router early and stamp it there too), or an adjacent
            // duplicate (loopback/private destinations).
            let next_hop = self.traces[idx].hops.get(i + 1).copied().flatten();
            let pos = reply.slots.iter().rposition(|&s| s == a).or_else(|| {
                reply.slots.windows(2).position(|w| w[0] == w[1]).map(|p| {
                    // An adjacent duplicate is usually the probed router's
                    // double stamp — but a loopback-mode neighbour stamping
                    // on both the forward and reply legs around a silent
                    // destination produces the identical pattern one router
                    // off. Attribute the doubled address by measured alias
                    // evidence, and drop it when neither candidate is
                    // confirmed: indexing it at a guessed hop would splice
                    // later reverse traceroutes one router away from where
                    // they actually joined.
                    let doubled = reply.slots[p];
                    if resolver.same_router(doubled, a) {
                        self.insert(doubled, inter, Priority::PreciseAlias);
                    } else if let Some(next) = next_hop {
                        if resolver.same_router(doubled, next) {
                            self.insert(
                                doubled,
                                Intersection {
                                    trace: idx,
                                    hop: i + 1,
                                },
                                Priority::PreciseAlias,
                            );
                        }
                    }
                    p + 1
                })
            });
            let Some(pos) = pos else { continue };
            // Reply-path stamps belong to routers along the traceroute
            // suffix, but which router stamped what depends on invisible
            // stamping modes. The reliable anchor: a router's egress
            // address shares a /30 with the *next* router's traceroute
            // (ingress) address — so locate each revealed address against
            // the suffix and index it at the located hop. Unlocatable
            // entries are dropped: splicing the suffix at a guessed hop
            // would fabricate reverse hops (and wrong ASes).
            for &rev in &reply.slots[pos + 1..] {
                let located = self.traces[idx].hops[i + 1..]
                    .iter()
                    .enumerate()
                    .find_map(|(off, h)| h.filter(|t| t.same_slash30(rev)).map(|_| i + 1 + off));
                if let Some(hop_pos) = located {
                    self.insert(
                        rev,
                        Intersection {
                            trace: idx,
                            hop: hop_pos,
                        },
                        Priority::PreciseAlias,
                    );
                } else if rev.same_slash30(a) {
                    // The probed hop's other /30 side (its upstream
                    // neighbour's egress) — same position as the hop.
                    self.insert(rev, inter, Priority::PreciseAlias);
                }
            }
        }
    }

    /// Look up an address in the intersection index.
    pub fn lookup(&self, addr: Addr) -> Option<Intersection> {
        self.index.get(&addr).map(|&(i, _)| i)
    }

    /// The path suffix (toward the source) from an intersection, starting
    /// at the intersected hop (inclusive).
    pub fn suffix(&self, inter: Intersection) -> &[Option<Addr>] {
        &self.traces[inter.trace].hops[inter.hop..]
    }

    /// Measurement age (hours of virtual time) of the trace backing an
    /// intersection.
    pub fn trace_age_hours(&self, inter: Intersection, now_hours: f64) -> f64 {
        now_hours - self.traces[inter.trace].at_hours
    }

    /// Number of indexed addresses.
    pub fn index_size(&self) -> usize {
        self.index.len()
    }

    /// Logical byte footprint of the stored traces: per-trace header plus
    /// the hop vector. A pure function of the measured paths.
    pub fn traces_bytes(&self) -> u64 {
        self.traces
            .iter()
            .map(|t| {
                std::mem::size_of::<AtlasTrace>()
                    + t.hops.len() * std::mem::size_of::<Option<Addr>>()
            })
            .sum::<usize>() as u64
    }

    /// Logical byte footprint of the intersection index: entries × (key +
    /// intersection + priority tag).
    pub fn index_bytes(&self) -> u64 {
        (self.index.len()
            * (std::mem::size_of::<Addr>() + std::mem::size_of::<(Intersection, Priority)>()))
            as u64
    }

    /// Iterate all indexed addresses (for alias-assisted lookup in the
    /// revtr 1.0 mode).
    pub fn indexed_addrs(&self) -> impl Iterator<Item = (Addr, Intersection)> + '_ {
        self.index.iter().map(|(&a, &(i, _))| (a, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::select_atlas_probes;
    use revtr_netsim::{Sim, SimConfig};

    fn setup() -> Sim {
        Sim::build(SimConfig::tiny(), 23)
    }

    #[test]
    fn atlas_indexes_hops_and_suffixes_reach_source() {
        let sim = setup();
        let prober = Prober::new(&sim);
        let aliases = AliasResolver::new(&sim);
        let source = sim.topo().vp_sites[0].host;
        let probes = select_atlas_probes(&sim, 30, 2);
        let atlas = SourceAtlas::build(&prober, &aliases, source, &probes, true, None);
        assert!(!atlas.traces.is_empty());
        assert!(atlas.index_size() > 0);
        for t in &atlas.traces {
            assert_eq!(t.hops.last().copied().flatten(), Some(source));
        }
        // Every exact hop lookup returns a suffix ending at the source.
        for t in 0..atlas.traces.len() {
            for h in atlas.traces[t].hops.iter() {
                let Some(a) = h else { continue };
                if *a == source || a.is_private() {
                    continue;
                }
                let inter = atlas.lookup(*a).expect("hop indexed");
                let suffix = atlas.suffix(inter);
                assert_eq!(suffix.last().copied().flatten(), Some(source));
            }
        }
    }

    #[test]
    fn rr_atlas_adds_alias_entries() {
        let sim = setup();
        let prober = Prober::new(&sim);
        let aliases = AliasResolver::new(&sim);
        let source = sim.topo().vp_sites[0].host;
        let probes = select_atlas_probes(&sim, 30, 2);
        let plain = SourceAtlas::build(&prober, &aliases, source, &probes, false, None);
        let with_rr = SourceAtlas::build(&prober, &aliases, source, &probes, true, None);
        assert!(
            with_rr.index_size() > plain.index_size(),
            "RR-atlas must index additional (alias) addresses: {} vs {}",
            with_rr.index_size(),
            plain.index_size()
        );
        // The extra probes were charged to the background budget.
        assert!(prober.counters().snapshot().atlas_rr > 0);
    }

    #[test]
    fn rr_atlas_aliases_point_at_same_router_positions() {
        // Soundness: an alias learned by the RR-atlas, when looked up,
        // yields a suffix whose hops truly lead to the source.
        let sim = setup();
        let prober = Prober::new(&sim);
        let aliases = AliasResolver::new(&sim);
        let o = sim.oracle();
        let source = sim.topo().vp_sites[0].host;
        let probes = select_atlas_probes(&sim, 30, 2);
        let atlas = SourceAtlas::build(&prober, &aliases, source, &probes, true, None);
        let mut alias_entries = 0;
        for (addr, inter) in atlas.indexed_addrs() {
            let hop_addr = atlas.traces[inter.trace].hops[inter.hop];
            let Some(hop_addr) = hop_addr else { continue };
            if addr == hop_addr {
                continue; // exact entry
            }
            alias_entries += 1;
            // A precise alias entry names the same router or one on the
            // path from that hop to the source.
            if o.same_router(addr, hop_addr) {
                continue;
            }
        }
        assert!(alias_entries > 0, "no alias entries learned");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::probes::select_atlas_probes;
    use revtr_netsim::{Sim, SimConfig};
    use revtr_probing::Prober;

    #[test]
    fn trace_age_tracks_virtual_time() {
        let sim = Sim::build(SimConfig::tiny(), 29);
        let prober = Prober::new(&sim);
        let aliases = AliasResolver::new(&sim);
        let source = sim.topo().vp_sites[0].host;
        let probes = select_atlas_probes(&sim, 10, 4);
        let atlas = SourceAtlas::build(&prober, &aliases, source, &probes, false, None);
        let inter = atlas
            .traces
            .iter()
            .enumerate()
            .find_map(|(t, tr)| {
                tr.hops
                    .iter()
                    .position(|h| h.is_some())
                    .map(|h| Intersection { trace: t, hop: h })
            })
            .expect("some responsive hop");
        let age0 = atlas.trace_age_hours(inter, sim.now_hours());
        sim.advance_hours(5.0);
        let age1 = atlas.trace_age_hours(inter, sim.now_hours());
        assert!(age1 > age0 + 4.9);
    }

    #[test]
    fn unreached_traceroutes_are_not_indexed() {
        let sim = Sim::build(SimConfig::tiny(), 29);
        let prober = Prober::new(&sim);
        let aliases = AliasResolver::new(&sim);
        let source = sim.topo().vp_sites[0].host;
        // A ping-unresponsive probe host: its traceroute never "reaches"
        // and can't serve as an atlas trace... but atlas *sources* of the
        // traces are probes; unreached means the trace toward the source
        // failed, which cannot happen for a VP source. Instead check that
        // an unroutable probe contributes nothing.
        let unroutable = [revtr_netsim::Addr::new(10, 0, 0, 1)];
        let atlas = SourceAtlas::build(&prober, &aliases, source, &unroutable, true, None);
        assert!(atlas.traces.is_empty(), "unroutable probe added a trace");
        assert_eq!(prober.counters().snapshot().traceroutes, 1);
    }

    #[test]
    fn index_never_contains_private_or_source() {
        let sim = Sim::build(SimConfig::tiny(), 30);
        let prober = Prober::new(&sim);
        let aliases = AliasResolver::new(&sim);
        let source = sim.topo().vp_sites[1].host;
        let probes = select_atlas_probes(&sim, 25, 5);
        let atlas = SourceAtlas::build(&prober, &aliases, source, &probes, true, None);
        for (addr, inter) in atlas.indexed_addrs() {
            assert!(!addr.is_private());
            assert_ne!(addr, source);
            assert!(inter.trace < atlas.traces.len());
            assert!(inter.hop < atlas.traces[inter.trace].hops.len());
        }
    }
}

#[cfg(test)]
mod round_tests {
    use super::*;
    use crate::probes::select_atlas_probes;
    use revtr_netsim::{FaultConfig, Sim, SimConfig};
    use revtr_probing::prober::{PROBE_TIMEOUT_MS, TRACEROUTE_TIMEOUT_MS};
    use revtr_probing::{RetryPolicy, Snapshot};

    /// The tiny Internet with churn and per-packet load balancing
    /// quiesced, so a probe's answer depends on neither its send time nor
    /// its nonce — only on whether its attempts were lost.
    fn quiet_sim(faults: FaultConfig) -> Sim {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 0.0;
        cfg.behavior.router_load_balancer = 0.0;
        cfg.faults = faults;
        Sim::build(cfg, 23)
    }

    /// FNV-1a-64 over the atlas content: every trace's probe and hops,
    /// then the index sorted by address, each entry with its intersection
    /// and priority. Measurement hours are left out.
    fn digest(atlas: &SourceAtlas) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in &atlas.traces {
            eat(u64::from(t.vp.0));
            eat(t.hops.len() as u64);
            for hop in &t.hops {
                eat(hop.map_or(u64::MAX, |a| u64::from(a.0)));
            }
        }
        let mut index: Vec<_> = atlas.index.iter().collect();
        index.sort_unstable_by_key(|&(&a, _)| a);
        for (a, (inter, prio)) in index {
            eat(u64::from(a.0));
            eat(inter.trace as u64);
            eat(inter.hop as u64);
            eat(*prio as u64);
        }
        h
    }

    /// One 30-probe RR-atlas build on a fresh prober: the atlas and the
    /// prober that built it.
    fn build_one<'s>(
        sim: &'s Sim,
        budget: u32,
        discovery: Option<&StopSet>,
    ) -> (SourceAtlas, Prober<'s>) {
        let prober = Prober::new(sim).with_retry_policy(RetryPolicy::uniform(budget));
        let aliases = AliasResolver::new(sim);
        let source = sim.topo().vp_sites[0].host;
        let probes = select_atlas_probes(sim, 30, 2);
        let atlas = SourceAtlas::build(&prober, &aliases, source, &probes, true, discovery);
        (atlas, prober)
    }

    /// The build's atlas and counters, pinned as constants. Fault-free,
    /// they are the ones the serial build produced: a probe's answer
    /// depends on nothing but the probe. Under 30 % loss with retries every
    /// attempt's fate is drawn from its nonce, a function of the packet and
    /// the instant it leaves in the round: a build that sent other probes,
    /// or sent them at other instants, would lose other attempts and keep
    /// another atlas. The order it sends them in moves nothing.
    #[test]
    fn a_round_build_keeps_the_serial_atlas_and_counters() {
        let sim = quiet_sim(FaultConfig::default());
        let (atlas, prober) = build_one(&sim, 1, None);
        let want = Snapshot {
            traceroute_pkts: 215,
            traceroutes: 30,
            atlas_rr: 148,
            ..Snapshot::default()
        };
        assert_eq!(prober.counters().snapshot(), want);
        assert_eq!((atlas.traces.len(), atlas.index_size()), (30, 118));
        assert_eq!(digest(&atlas), 0xdcb0_bde7_b451_ffb7);

        let sim = quiet_sim(FaultConfig::lossy(0.3));
        let discovery = StopSet::new();
        let (atlas, prober) = build_one(&sim, 3, Some(&discovery));
        let want = Snapshot {
            traceroute_pkts: 215,
            traceroutes: 40,
            atlas_rr: 97,
            retries: 43,
            lost: 45,
            ..Snapshot::default()
        };
        assert_eq!(prober.counters().snapshot(), want);
        assert_eq!((atlas.traces.len(), atlas.index_size()), (30, 117));
        assert_eq!(digest(&atlas), 0x1734_dbd3_76b8_23b8);
    }

    /// Fault-free, a build charges the shared clock once: its slowest
    /// trace plus that trace's slowest RR-atlas ping, recomputed here from
    /// the simulator's own answers.
    #[test]
    fn a_build_charges_its_slowest_trace_and_rr_ping_once() {
        let sim = quiet_sim(FaultConfig::default());
        let (atlas, prober) = build_one(&sim, 1, None);
        let source = atlas.source;
        let rr_ms = |a: Addr| {
            sim.rr_ping(source, a, 0)
                .map_or(PROBE_TIMEOUT_MS, |r| r.rtt_ms)
        };
        let slowest = select_atlas_probes(&sim, 30, 2)
            .into_iter()
            .map(|vp| {
                let Some(t) = sim.traceroute(vp, source, Prober::paris_flow(vp, source)) else {
                    return TRACEROUTE_TIMEOUT_MS;
                };
                let pinged = t
                    .hops
                    .iter()
                    .flatten()
                    .filter(|&&a| t.reached && a != source && sim.host_prefix(a).is_none());
                t.rtt_ms + pinged.map(|&a| rr_ms(a)).fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        let charged = prober.clock().now_ms();
        assert_eq!(
            charged.to_bits(),
            slowest.to_bits(),
            "{charged} vs {slowest}"
        );
        assert!(
            charged <= TRACEROUTE_TIMEOUT_MS + PROBE_TIMEOUT_MS,
            "{charged}"
        );
        // One opening hour for every trace.
        assert!(atlas.traces.iter().all(|t| t.at_hours == 0.0));
    }
}
