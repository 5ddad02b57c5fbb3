//! Probe semantics: ICMP echo with and without IP options, traceroute.
//!
//! Everything here models what a measurement host can *observe*: replies,
//! Record Route slot contents, Timestamp fills, TTL-exceeded source
//! addresses. Ground truth (which routers a packet really crossed) is only
//! available through [`crate::oracle`].

use crate::addr::Addr;
use crate::behavior::HostStamp;
use crate::hash::{chance, mix2, mix3};
use crate::ids::{PrefixId, RouterId};
use crate::inline::InlineVec;
use crate::sim::{Dest, Hop, PktMeta, Sim, SinkTree, Walk, HOST_LINK_MS, MAX_HOPS};
use crate::topology::{LinkKind, StampMode};

/// Number of Record Route slots in an IPv4 header (RFC 791).
pub const RR_SLOTS: usize = 9;

/// The recorded route of one reply, held inline: an RR reply — and every
/// clone of it into or out of a measurement cache — allocates nothing.
pub type RrSlots = InlineVec<Addr, RR_SLOTS>;

/// Number of prespecified address slots in a TS-prespec option.
pub const TS_SLOTS: usize = 4;

/// Reply to a plain echo request.
#[derive(Clone, Debug, PartialEq)]
pub struct EchoReply {
    /// The address that answered.
    pub from: Addr,
    /// Round-trip (or spoofed one-way-sum) virtual latency.
    pub rtt_ms: f64,
}

/// Reply to an RR-option echo request.
#[derive(Clone, Debug, PartialEq)]
pub struct RrReply {
    /// The address that answered.
    pub from: Addr,
    /// Recorded route slots, in stamping order (≤ 9 entries).
    pub slots: RrSlots,
    /// Virtual latency.
    pub rtt_ms: f64,
}

/// Reply to a TS-prespec echo request.
#[derive(Clone, Debug, PartialEq)]
pub struct TsReply {
    /// The address that answered.
    pub from: Addr,
    /// How many of the prespecified slots were filled (in order).
    pub filled: usize,
    /// Virtual latency.
    pub rtt_ms: f64,
}

/// Result of a full (forward) traceroute.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceResult {
    /// Per-TTL responses: interface address or `None` for `*`. When the
    /// destination answered, the final entry is its echo reply address.
    pub hops: Vec<Option<Addr>>,
    /// True if the destination's echo reply was received.
    pub reached: bool,
    /// Total virtual time spent (dominated by per-hop round trips).
    pub rtt_ms: f64,
}

impl TraceResult {
    /// The responsive hop addresses, in order.
    pub fn responsive_hops(&self) -> impl Iterator<Item = Addr> + '_ {
        self.hops.iter().filter_map(|h| *h)
    }
}

/// What one TTL-limited probe toward a target observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TtlAnswer {
    /// The router the probe expired at answered from this interface.
    Exceeded(Addr),
    /// The router the probe expired at does not answer (`*`).
    Silent,
    /// The probe reached the target, which answered the echo.
    Echo,
    /// The probe got as far as the target and nothing answered: a full
    /// trace's terminal `*`. [`Sim::traceroute`] knows to stop there, and a
    /// view grants the same knowledge at the same price — one packet.
    PastEnd,
}

/// The forward path from a host to a target as TTL-limited probes of one
/// flow see it, answered TTL by TTL off a single walk, and the meter of
/// what was asked: every distinct TTL read is one packet and the round
/// trip [`Sim::traceroute`] charges for that TTL, so the bill cannot
/// diverge from what was looked at. Held inline — a view never touches
/// the heap.
#[derive(Clone, Debug)]
pub struct TtlView {
    /// Per TTL short of the target: the answering interface (`None` for
    /// `*`) and the probe's round trip.
    hops: InlineVec<(Option<Addr>, f64), MAX_HOPS>,
    /// The echo's round trip; `None` when the target answers no ping.
    echo_rtt_ms: Option<f64>,
    /// Bit `t` is set once TTL `t` has been read.
    read: [u64; 4],
}

impl TtlView {
    /// Send the flow's probe with this `ttl` (1-based; re-reading a TTL
    /// re-sends nothing).
    pub fn probe(&mut self, ttl: u8) -> TtlAnswer {
        assert!(ttl > 0, "a probe with TTL 0 never leaves its host");
        self.read[usize::from(ttl / 64)] |= 1 << (ttl % 64);
        match self.hops.get(usize::from(ttl) - 1) {
            Some(&(Some(addr), _)) => TtlAnswer::Exceeded(addr),
            Some(&(None, _)) => TtlAnswer::Silent,
            None if self.echo_rtt_ms.is_some() => TtlAnswer::Echo,
            None => TtlAnswer::PastEnd,
        }
    }

    /// Packets sent so far: the distinct TTLs read.
    pub fn packets(&self) -> u32 {
        self.read.iter().map(|w| w.count_ones()).sum()
    }

    /// Virtual time those packets took, summed in TTL order — reading
    /// every TTL of the path adds up exactly as the full trace does.
    pub fn rtt_ms(&self) -> f64 {
        let mut total = 0.0;
        for (word, &bits) in self.read.iter().enumerate() {
            let mut left = bits;
            while left != 0 {
                let ttl = word * 64 + left.trailing_zeros() as usize;
                left &= left - 1;
                total += match self.hops.get(ttl - 1) {
                    Some(&(_, rtt)) => rtt,
                    None => self.echo_rtt_ms.unwrap_or(0.0),
                };
            }
        }
        total
    }
}

/// Which probe flavour a destination must answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbeKind {
    Ping,
    Rr,
    Ts,
}

impl Sim {
    /// True if this hop is invisible to TTL and IP options: an interior hop
    /// of an MPLS backbone (entered and left on intra links of an AS whose
    /// LSPs do not propagate TTL) — §5.2.2's hidden tunnels.
    fn mpls_hidden(&self, hop: &Hop) -> bool {
        let asn = self.topo().router_as(hop.router);
        if !self.topo().asn(asn).mpls {
            return false;
        }
        let intra = |l: Option<crate::ids::LinkId>| {
            l.map(|l| matches!(self.topo().link(l).kind, LinkKind::Intra(a) if a == asn))
                .unwrap_or(false)
        };
        intra(hop.in_link) && intra(hop.out_link)
    }

    // ---- responsiveness ----------------------------------------------------

    fn dest_responds(&self, dest: &Dest, addr: Addr, kind: ProbeKind) -> bool {
        if self.is_vp_host(addr) {
            return true; // our own machines answer everything
        }
        match *dest {
            Dest::Host { .. } => match kind {
                ProbeKind::Ping => self.behavior().host_ping_responsive(addr),
                ProbeKind::Rr => self.behavior().host_rr_responsive(addr),
                ProbeKind::Ts => self.behavior().host_ts_responsive(addr),
            },
            Dest::Router { router, .. } => match kind {
                ProbeKind::Ping => self.behavior().router_ping_responsive(router),
                ProbeKind::Rr => self.behavior().router_rr_responsive(router),
                ProbeKind::Ts => {
                    self.behavior().router_ping_responsive(router)
                        && self.topo().router(router).ts_capable
                }
            },
        }
    }

    /// Validate a spoofed send: the sender must be a host, and if claiming a
    /// foreign source, the sender's AS must permit spoofing. Returns the
    /// sender's prefix and attach router.
    fn sender_ok(&self, sender: Addr, claimed: Addr) -> Option<(PrefixId, RouterId)> {
        let (pid, attach) = self.resolve_host(sender)?;
        if claimed != sender {
            let owner = self.topo().prefix(pid).owner;
            if self.topo().asn(owner).spoof_filter {
                return None; // spoofed packet dropped at the edge
            }
        }
        Some((pid, attach))
    }

    /// Prefix and attach router of the host a reply is observed at — the
    /// sender's own, already resolved, unless the probe is spoofed. `None`
    /// if the claimed source is no valid host: nothing observes the reply.
    fn receiver(
        &self,
        sender: Addr,
        resolved: (PrefixId, RouterId),
        claimed_src: Addr,
    ) -> Option<(PrefixId, RouterId)> {
        if claimed_src == sender {
            Some(resolved)
        } else {
            self.resolve_host(claimed_src)
        }
    }

    /// Where `dest`'s reply starts its walk back.
    fn reply_start(dest: &Dest) -> RouterId {
        match *dest {
            Dest::Host { attach, .. } => attach,
            Dest::Router { router, .. } => router,
        }
    }

    // ---- plain ping ---------------------------------------------------------

    /// Plain ICMP echo from `src` (a host) to `dst`. Returns `None` when the
    /// destination is unroutable or unresponsive.
    pub fn ping(&self, src: Addr, dst: Addr) -> Option<EchoReply> {
        self.ping_from(src, src, dst)
    }

    /// Echo request sent by `sender`, with source field `claimed_src` (the
    /// reply goes there). Returns the reply as observed at `claimed_src`.
    pub fn ping_from(&self, sender: Addr, claimed_src: Addr, dst: Addr) -> Option<EchoReply> {
        let (snd_prefix, attach) = self.sender_ok(sender, claimed_src)?;
        let dest = self.resolve_dest(dst)?;
        if !self.dest_responds(&dest, dst, ProbeKind::Ping) {
            return None;
        }
        let fwd = self.walk_to(
            attach,
            dst,
            &dest,
            &PktMeta::plain(claimed_src, 0),
            None,
            None,
        )?;
        let back = if claimed_src == sender {
            Dest::Host {
                prefix: snd_prefix,
                attach,
            }
        } else {
            self.resolve_dest(claimed_src)?
        };
        let rep = self.walk_to(
            Self::reply_start(&dest),
            claimed_src,
            &back,
            &PktMeta::plain(dst, 0),
            None,
            None,
        )?;
        Some(EchoReply {
            from: dst,
            rtt_ms: HOST_LINK_MS + fwd.latency_ms + rep.latency_ms,
        })
    }

    // ---- record route --------------------------------------------------------

    /// RR stamp address for a forwarding router, given surrounding context.
    ///
    /// `first_gw`/`last_gw` supply the virtual host-side interface for the
    /// first hop after a sending host (ingress side) and the last hop before
    /// a receiving host (egress side).
    fn rr_stamp(&self, hop: &Hop, first_gw: Option<Addr>, last_gw: Option<Addr>) -> Option<Addr> {
        let r = self.topo().router(hop.router);
        match r.stamp {
            StampMode::NoStamp => None,
            StampMode::Loopback => Some(r.loopback),
            StampMode::Private => Some(r.private_alias),
            StampMode::Egress => match hop.out_link {
                Some(l) => Some(self.topo().link(l).addr_of(hop.router)),
                None => last_gw,
            },
            StampMode::Ingress => match hop.in_link {
                Some(l) => Some(self.topo().link(l).addr_of(hop.router)),
                None => first_gw,
            },
        }
    }

    /// Apply forwarding-router stamps for a walk segment.
    fn stamp_walk(
        &self,
        walk: &Walk,
        slots: &mut RrSlots,
        skip_first: bool,
        skip_last: bool,
        first_gw: Option<Addr>,
        last_gw: Option<Addr>,
    ) {
        let n = walk.hops.len();
        for (i, hop) in walk.hops.iter().enumerate() {
            if (i == 0 && skip_first) || (i + 1 == n && skip_last) {
                continue;
            }
            if slots.is_full() {
                break;
            }
            if self.mpls_hidden(hop) {
                continue; // LSP interior: the IP header is never processed
            }
            let fg = if i == 0 { first_gw } else { None };
            let lg = if i + 1 == n { last_gw } else { None };
            if let Some(a) = self.rr_stamp(hop, fg, lg) {
                slots.push(a);
            }
        }
    }

    /// Destination stamping behaviour (Appx. C cases).
    fn stamp_dest(&self, dest: &Dest, dst: Addr, slots: &mut RrSlots) {
        let mut push = |a: Addr| {
            if !slots.is_full() {
                slots.push(a);
            }
        };
        if self.is_vp_host(dst) {
            push(dst);
            return;
        }
        match *dest {
            Dest::Host { prefix, .. } => match self.behavior().host_stamp(dst) {
                HostStamp::SelfAddr => push(dst),
                HostStamp::None => {}
                HostStamp::AliasDouble => {
                    let alias = self.alias_in(prefix, dst);
                    push(alias);
                    push(alias);
                }
            },
            Dest::Router { router, .. } => {
                // The destination router stamps once here; it stamps again
                // (per its normal mode) as the first forwarder of its own
                // reply — which is how loopback/private routers produce the
                // Appx. C "double stamp" pattern, and how egress-stamping
                // routers reveal their reverse-facing alias (§4.2, Fig. 3).
                let r = self.topo().router(router);
                match r.stamp {
                    StampMode::Egress | StampMode::Ingress => push(dst),
                    StampMode::Loopback => push(r.loopback),
                    StampMode::Private => push(r.private_alias),
                    StampMode::NoStamp => {}
                }
            }
        }
    }

    /// Record-route echo request from `src` to `dst` (non-spoofed).
    pub fn rr_ping(&self, src: Addr, dst: Addr, nonce: u64) -> Option<RrReply> {
        self.rr_ping_from(src, src, dst, nonce)
    }

    /// Record-route echo request sent by `sender` with (possibly spoofed)
    /// source `claimed_src`; the reply — with its stamped slots — is
    /// observed at `claimed_src`.
    ///
    /// This is the workhorse of Reverse Traceroute: slots left unfilled by
    /// the forward path are stamped by routers on the reply path from `dst`
    /// toward `claimed_src`, revealing reverse hops (§2).
    pub fn rr_ping_from(
        &self,
        sender: Addr,
        claimed_src: Addr,
        dst: Addr,
        nonce: u64,
    ) -> Option<RrReply> {
        self.rr_reply(sender, claimed_src, dst, nonce, [None, None])
    }

    /// [`Sim::rr_ping`] by a caller that pings many destinations from many
    /// sources and keeps their sink trees: `forward` is lent to the walk
    /// toward `dst`, `reply` to the walk back toward `src`. The reply is
    /// the one [`Sim::rr_ping`] observes, whatever the trees hold.
    pub fn rr_ping_lent(
        &self,
        src: Addr,
        dst: Addr,
        nonce: u64,
        forward: Option<&mut SinkTree>,
        reply: Option<&mut SinkTree>,
    ) -> Option<RrReply> {
        self.rr_reply(src, src, dst, nonce, [forward, reply])
    }

    /// What `claimed_src` observes of one live Record Route exchange.
    fn rr_reply(
        &self,
        sender: Addr,
        claimed_src: Addr,
        dst: Addr,
        nonce: u64,
        trees: [Option<&mut SinkTree>; 2],
    ) -> Option<RrReply> {
        let (mut slots, reply_mark, rtt_ms) =
            self.rr_exchange(sender, claimed_src, dst, nonce, [None, None], trees)?;
        // Scenario `lying_rr_responders`: the destination rewrites the
        // reply-leg stamps it reports. Only the live observation lies —
        // [`Sim::replay_rr_reply_stamps`] below reconstructs the truth, so
        // the audit oracle (and the hardened engine's cross-validation) can
        // tell the difference.
        self.scenario_lie_slots(dst, &mut slots[reply_mark..]);
        Some(RrReply {
            from: dst,
            slots,
            rtt_ms,
        })
    }

    /// One Record Route echo exchange, forward leg then reply leg, with
    /// each leg's churn epoch pinned (`None` reads the live epoch) and its
    /// sink tree lent, if the caller keeps one: forward walk, destination
    /// stamp, reply walk. Returns the stamped slots, where the reply leg's
    /// stamps begin in them, and the round-trip latency. Every address is
    /// resolved once, whatever the number of legs that route on it.
    fn rr_exchange(
        &self,
        sender: Addr,
        claimed_src: Addr,
        dst: Addr,
        nonce: u64,
        [fwd_epoch, rep_epoch]: [Option<u32>; 2],
        [fwd_tree, rep_tree]: [Option<&mut SinkTree>; 2],
    ) -> Option<(RrSlots, usize, f64)> {
        let (snd_prefix, attach) = self.sender_ok(sender, claimed_src)?;
        let dest = self.resolve_dest(dst)?;
        if !self.dest_responds(&dest, dst, ProbeKind::Rr) {
            return None;
        }
        let (recv_prefix, recv_attach) =
            self.receiver(sender, (snd_prefix, attach), claimed_src)?;

        let fwd = self.walk_to(
            attach,
            dst,
            &dest,
            &PktMeta::options(claimed_src, nonce),
            fwd_epoch,
            fwd_tree,
        )?;
        let mut slots = RrSlots::new();
        let sender_gw = Some(self.prefix_gateway(snd_prefix));
        let is_router_dest = matches!(dest, Dest::Router { .. });
        let dest_gw = match dest {
            Dest::Host { prefix, .. } => Some(self.prefix_gateway(prefix)),
            Dest::Router { .. } => None,
        };
        // Forward stamping: the destination router (if the target is a
        // router) stamps via the destination rules, not as a forwarder.
        self.stamp_walk(&fwd, &mut slots, false, is_router_dest, sender_gw, dest_gw);
        self.stamp_dest(&dest, dst, &mut slots);

        // Reply path.
        let rep = self.walk_to(
            Self::reply_start(&dest),
            claimed_src,
            &Dest::Host {
                prefix: recv_prefix,
                attach: recv_attach,
            },
            &PktMeta::options(dst, mix2(nonce, 1)),
            rep_epoch,
            rep_tree,
        )?;
        let recv_gw = Some(self.prefix_gateway(recv_prefix));
        // For host destinations the attach router forwards the reply and
        // stamps (ingress side = the destination prefix gateway). For router
        // destinations the destination router *also* stamps as the first
        // forwarder of its own reply, revealing its reverse-facing interface
        // — the alias the RR-atlas technique (§4.2) harvests.
        let reply_mark = slots.len();
        self.stamp_walk(&rep, &mut slots, false, false, dest_gw, recv_gw);
        Some((
            slots,
            reply_mark,
            HOST_LINK_MS + fwd.latency_ms + rep.latency_ms,
        ))
    }

    /// Re-derive the Record Route stamps that the **reply leg** of an
    /// earlier [`Sim::rr_ping_from`] probe produced, pinning the churn
    /// epochs recorded at probe time (`fwd_epoch` for the forward walk
    /// toward `dst`, `rep_epoch` for the reply walk toward `claimed_src`).
    ///
    /// The forward leg and destination stamping are recomputed only to
    /// reproduce slot consumption (the RFC 791 nine-slot cap); the returned
    /// addresses are exactly the slots appended after the destination
    /// stamp — the set a correct reverse-hop extraction may draw from.
    /// Exact whenever link-maintenance faults are off (walks then never
    /// consult the live clock).
    pub(crate) fn replay_rr_reply_stamps(
        &self,
        sender: Addr,
        claimed_src: Addr,
        dst: Addr,
        nonce: u64,
        fwd_epoch: Option<u32>,
        rep_epoch: Option<u32>,
    ) -> Option<Vec<Addr>> {
        let (slots, reply_mark, _) = self.rr_exchange(
            sender,
            claimed_src,
            dst,
            nonce,
            [fwd_epoch, rep_epoch],
            [None, None],
        )?;
        Some(slots[reply_mark..].to_vec())
    }

    // ---- timestamp -------------------------------------------------------------

    /// TS-prespec echo request: `prespec` holds up to four addresses; each
    /// is stamped only after all previous ones were (RFC 791 semantics), so
    /// a filled pair ⟨current hop, adjacency⟩ proves the adjacency is on the
    /// reverse path (§2).
    pub fn ts_ping_from(
        &self,
        sender: Addr,
        claimed_src: Addr,
        dst: Addr,
        prespec: &[Addr],
        nonce: u64,
    ) -> Option<TsReply> {
        assert!(
            prespec.len() <= TS_SLOTS,
            "at most 4 prespecified addresses"
        );
        let (snd_prefix, attach) = self.sender_ok(sender, claimed_src)?;
        let dest = self.resolve_dest(dst)?;
        if !self.dest_responds(&dest, dst, ProbeKind::Ts) {
            return None;
        }
        let (recv_prefix, recv_attach) =
            self.receiver(sender, (snd_prefix, attach), claimed_src)?;

        let mut filled = 0usize;
        let visit_router = |r: RouterId, filled: &mut usize| {
            if *filled >= prespec.len() {
                return;
            }
            let router = self.topo().router(r);
            if router.ts_capable && self.topo().router_at(prespec[*filled]) == Some(r) {
                *filled += 1;
            }
        };

        let fwd = self.walk_to(
            attach,
            dst,
            &dest,
            &PktMeta::options(claimed_src, nonce),
            None,
            None,
        )?;
        let is_router_dest = matches!(dest, Dest::Router { .. });
        let n = fwd.hops.len();
        for (i, hop) in fwd.hops.iter().enumerate() {
            if i + 1 == n && is_router_dest {
                break; // destination handled below
            }
            if self.mpls_hidden(hop) {
                continue;
            }
            visit_router(hop.router, &mut filled);
        }
        // Destination stamping.
        if filled < prespec.len() {
            match dest {
                Dest::Host { .. } => {
                    if prespec[filled] == dst {
                        filled += 1;
                    }
                }
                Dest::Router { router, .. } => {
                    if self.topo().router(router).ts_capable
                        && self.topo().router_at(prespec[filled]) == Some(router)
                    {
                        filled += 1;
                    }
                }
            }
        }

        let rep = self.walk_to(
            Self::reply_start(&dest),
            claimed_src,
            &Dest::Host {
                prefix: recv_prefix,
                attach: recv_attach,
            },
            &PktMeta::options(dst, mix2(nonce, 3)),
            None,
            None,
        )?;
        for (i, hop) in rep.hops.iter().enumerate() {
            if i == 0 && is_router_dest {
                continue;
            }
            visit_router(hop.router, &mut filled);
        }

        Some(TsReply {
            from: dst,
            filled,
            rtt_ms: HOST_LINK_MS + fwd.latency_ms + rep.latency_ms,
        })
    }

    // ---- traceroute --------------------------------------------------------------

    /// What TTL-limited probes of a flow observe along its walk, one item
    /// per TTL short of the target: the answering interface (`None` for
    /// `*`) and the probe's round trip. LSP-interior hops do not decrement
    /// TTL and yield nothing; a destination router answers with the echo,
    /// not here.
    fn ttl_hops<'a>(
        &'a self,
        fwd: &'a Walk,
        dest: &Dest,
        src_gw: Addr,
    ) -> impl Iterator<Item = (Option<Addr>, f64)> + 'a {
        let expiring = fwd.hops.len() - usize::from(matches!(dest, Dest::Router { .. }));
        let mut cumulative = HOST_LINK_MS;
        fwd.hops[..expiring]
            .iter()
            .filter(|hop| !self.mpls_hidden(hop))
            .map(move |hop| {
                let addr =
                    self.topo()
                        .router(hop.router)
                        .ttl_responsive
                        .then(|| match hop.in_link {
                            Some(l) => self.topo().link(l).addr_of(hop.router),
                            None => src_gw,
                        });
                let rtt = 2.0 * cumulative;
                if let Some(l) = hop.out_link {
                    cumulative += self.topo().link(l).latency_ms;
                }
                (addr, rtt)
            })
    }

    /// (Paris) traceroute from host `src` to `dst`. The flow id keeps
    /// per-flow load balancing consistent across TTLs, so the returned hop
    /// sequence is a single coherent path.
    pub fn traceroute(&self, src: Addr, dst: Addr, flow: u16) -> Option<TraceResult> {
        let (pid, attach) = self.resolve_host(src)?;
        let dest = self.resolve_dest(dst)?;
        let fwd = self.walk_to(attach, dst, &dest, &PktMeta::plain(src, flow), None, None)?;

        // One entry per walk hop at most, plus the destination's answer.
        let mut hops: Vec<Option<Addr>> = Vec::with_capacity(fwd.hops.len() + 1);
        let mut rtt_total = 0.0;
        for (addr, rtt) in self.ttl_hops(&fwd, &dest, self.prefix_gateway(pid)) {
            rtt_total += rtt;
            hops.push(addr);
        }

        let reached = self.dest_responds(&dest, dst, ProbeKind::Ping);
        if reached {
            hops.push(Some(dst));
            rtt_total += 2.0 * (fwd.latency_ms + HOST_LINK_MS);
        } else {
            // Three unanswered max-TTL probes, conventionally.
            hops.push(None);
        }
        Some(TraceResult {
            hops,
            reached,
            rtt_ms: rtt_total,
        })
    }

    /// The path [`Sim::traceroute`] would trace, opened for reading one
    /// TTL at a time (same flow id, same per-TTL answers and round trips).
    /// `None` when `src` is no host or `dst` is unroutable.
    pub fn ttl_view(&self, src: Addr, dst: Addr, flow: u16) -> Option<TtlView> {
        let (pid, attach) = self.resolve_host(src)?;
        let dest = self.resolve_dest(dst)?;
        let fwd = self.walk_to(attach, dst, &dest, &PktMeta::plain(src, flow), None, None)?;
        Some(TtlView {
            hops: self
                .ttl_hops(&fwd, &dest, self.prefix_gateway(pid))
                .collect(),
            echo_rtt_ms: self
                .dest_responds(&dest, dst, ProbeKind::Ping)
                .then_some(2.0 * (fwd.latency_ms + HOST_LINK_MS)),
            read: [0; 4],
        })
    }

    // ---- SNMPv3 fingerprinting -----------------------------------------------------

    /// Unsolicited SNMPv3 probe to an address: if it belongs to an
    /// SNMP-responsive router, returns the router's stable engine id. Per
    /// the paper's measurements, responsive routers answer on ~90% of their
    /// addresses with a consistent id (§4.4).
    pub fn snmp_probe(&self, addr: Addr) -> Option<u64> {
        let r = self.topo().router_at(addr)?;
        let router = self.topo().router(r);
        if !router.snmp_responsive {
            return None;
        }
        // Per-address responsiveness.
        if !chance(mix3(self.seed() ^ 0x5a3b, addr.0 as u64, r.0 as u64), 0.96) {
            return None;
        }
        Some(mix2(self.seed() ^ 0x1d, r.0 as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 1)
    }

    /// Find a responsive host in some prefix, for tests.
    fn responsive_host(sim: &Sim, skip_prefixes: usize) -> Addr {
        for pe in sim.topo().prefixes.iter().skip(skip_prefixes) {
            for a in sim.host_addrs(pe.id) {
                if sim.behavior().host_rr_responsive(a) {
                    return a;
                }
            }
        }
        panic!("no responsive host found");
    }

    #[test]
    fn ping_roundtrip() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        let dst = responsive_host(&s, 10);
        let r = s.ping(src, dst).expect("responsive host answers");
        assert_eq!(r.from, dst);
        assert!(r.rtt_ms > 0.0);
        // Deterministic.
        assert_eq!(s.ping(src, dst), s.ping(src, dst));
    }

    #[test]
    fn unroutable_destinations() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        assert!(s.ping(src, Addr::new(10, 1, 2, 3)).is_none(), "private");
        assert!(
            s.ping(src, Addr::new(200, 0, 0, 1)).is_none(),
            "unallocated"
        );
    }

    #[test]
    fn rr_ping_has_slots_capped_at_nine() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        let mut seen_any = false;
        for skip in [0, 5, 20, 40] {
            let dst = responsive_host(&s, skip);
            if let Some(r) = s.rr_ping(src, dst, 7) {
                assert!(r.slots.len() <= RR_SLOTS);
                seen_any = true;
            }
        }
        assert!(seen_any, "no RR reply at all");
    }

    #[test]
    fn rr_ping_to_router_address() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        // Find an RR-responsive router interface.
        let mut got = None;
        for l in &s.topo().links {
            if s.behavior().router_rr_responsive(l.a) {
                got = Some(l.addr_a);
                break;
            }
        }
        let target = got.expect("some responsive router");
        let r = s.rr_ping(src, target, 3);
        assert!(r.is_some(), "router destination should answer RR");
    }

    #[test]
    fn spoofed_rr_from_filtered_as_is_dropped() {
        let s = sim();
        // Find a host in a spoof-filtering AS.
        let mut sender = None;
        for pe in &s.topo().prefixes {
            if s.topo().asn(pe.owner).spoof_filter {
                sender = Some(s.host_addrs(pe.id).next().expect("host range nonempty"));
                break;
            }
        }
        let Some(sender) = sender else {
            return; // tiny topology may filter nowhere; nothing to test
        };
        let vp = s.topo().vp_sites[0].host;
        let dst = responsive_host(&s, 30);
        assert!(
            s.rr_ping_from(sender, vp, dst, 1).is_none(),
            "spoofed packet from filtering AS must be dropped"
        );
        // The same probe unspoofed is fine (if sender/dst responsive).
        // (Not asserted: sender may be in an unresponsive corner.)
    }

    #[test]
    fn spoofed_rr_from_vp_works_and_reveals_reverse_hops() {
        let s = sim();
        // VP sites are spoof-capable by construction; spoof as another VP.
        let vps = &s.topo().vp_sites;
        let (sender, claimed) = (vps[0].host, vps[1].host);
        let mut any_reply = false;
        for skip in 0..60 {
            let dst = responsive_host(&s, skip);
            if let Some(r) = s.rr_ping_from(sender, claimed, dst, 11) {
                any_reply = true;
                assert!(!r.slots.is_empty(), "something must stamp in tiny topo");
            }
        }
        assert!(any_reply);
    }

    #[test]
    fn traceroute_reaches_and_is_flow_stable() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        let dst = responsive_host(&s, 15);
        let t1 = s.traceroute(src, dst, 5).expect("routable");
        let t2 = s.traceroute(src, dst, 5).expect("routable");
        assert_eq!(t1, t2, "Paris traceroute must be flow-stable");
        assert!(t1.reached);
        assert_eq!(t1.hops.last().copied().flatten(), Some(dst));
        assert!(t1.hops.len() >= 2);
    }

    #[test]
    fn ts_prespec_order_matters() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        // Choose a destination we can trace, then prespec its on-path hops.
        let dst = responsive_host(&s, 25);
        let tr = s.traceroute(src, dst, 1).expect("routable");
        let on_path: Vec<Addr> = tr.responsive_hops().collect();
        if on_path.len() < 2 || !s.behavior().host_ts_responsive(dst) {
            return; // nothing to assert in this corner of the tiny topo
        }
        // A bogus first prespec blocks all later fills.
        let bogus = Addr::new(203, 0, 113, 1);
        let r = s.ts_ping_from(src, src, dst, &[bogus, dst], 2);
        if let Some(r) = r {
            assert_eq!(r.filled, 0, "nothing may stamp after an unmatched slot");
        }
    }

    #[test]
    fn snmp_ids_are_consistent_across_aliases() {
        let s = sim();
        let mut checked = 0;
        for r in &s.topo().routers {
            if !r.snmp_responsive {
                continue;
            }
            let ids: Vec<u64> = s
                .topo()
                .router_addrs(r.id)
                .into_iter()
                .filter_map(|a| s.snmp_probe(a))
                .collect();
            if ids.len() >= 2 {
                assert!(ids.windows(2).all(|w| w[0] == w[1]));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn rr_slots_reveal_reverse_hops_when_vp_is_close() {
        // Structural property: a spoofed RR ping from a VP close to dst,
        // claiming a faraway source, must reveal at least one address that
        // the forward walk did not stamp — a reverse hop.
        let s = sim();
        let vps = &s.topo().vp_sites;
        let mut found_reverse = false;
        'outer: for vi in 0..vps.len() {
            for skip in 0..30 {
                let dst = responsive_host(&s, skip);
                let near = s.rr_ping(vps[vi].host, dst, 9);
                let Some(near) = near else { continue };
                // dst stamped within few slots → VP is close.
                if near.slots.len() >= RR_SLOTS {
                    continue;
                }
                for cj in 0..vps.len() {
                    if cj == vi {
                        continue;
                    }
                    let spoofed = s.rr_ping_from(vps[vi].host, vps[cj].host, dst, 10);
                    if let Some(sp) = spoofed {
                        if sp.slots.len() > near.slots.len().min(RR_SLOTS - 1) {
                            found_reverse = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(found_reverse, "no spoofed probe revealed reverse hops");
    }
}

#[cfg(test)]
mod mpls_tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::PktMeta;

    /// Force every transit/tier-1 AS onto MPLS and verify interior hops
    /// vanish from both traceroute and RR while paths stay correct.
    #[test]
    fn mpls_hides_interior_hops_from_ttl_and_rr() {
        let mut with = SimConfig::tiny();
        with.behavior.as_mpls = 1.0;
        let mut without = SimConfig::tiny();
        without.behavior.as_mpls = 0.0;
        let sim_m = Sim::build(with, 61);
        let sim_p = Sim::build(without, 61);

        let src = sim_p.topo().vp_sites[0].host;
        let mut fewer = 0;
        let mut compared = 0;
        for pe in sim_p.topo().prefixes.iter().take(40) {
            let dst = match sim_p.host_addrs(pe.id).next() {
                Some(d) => d,
                None => continue,
            };
            let (Some(tp), Some(tm)) =
                (sim_p.traceroute(src, dst, 1), sim_m.traceroute(src, dst, 1))
            else {
                continue;
            };
            // Same underlying walk (same seed/topology), so the MPLS trace
            // can only be shorter or equal.
            compared += 1;
            assert!(tm.hops.len() <= tp.hops.len());
            if tm.hops.len() < tp.hops.len() {
                fewer += 1;
            }
            assert_eq!(tm.reached, tp.reached);
        }
        assert!(compared > 10);
        assert!(fewer > 0, "full-MPLS backbone hid no hops");
    }

    #[test]
    fn mpls_border_hops_stay_visible() {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.as_mpls = 1.0;
        let sim = Sim::build(cfg, 62);
        // Walk some path and check: every hidden hop is interior (both
        // links intra to an MPLS AS); border hops always remain.
        let src = sim.topo().vp_sites[0].host;
        let dst = sim.topo().vp_sites[1].host;
        let attach = sim.host_attach(src).expect("vp host");
        let walk = sim
            .walk(attach, dst, &PktMeta::plain(src, 0))
            .expect("connected");
        for hop in &walk.hops {
            if sim.mpls_hidden(hop) {
                let asn = sim.topo().router_as(hop.router);
                assert!(sim.topo().asn(asn).mpls);
                // Entering or leaving hop of the AS must not be hidden.
                let inter_in = hop
                    .in_link
                    .map(|l| sim.topo().link(l).kind == crate::topology::LinkKind::Inter)
                    .unwrap_or(true);
                assert!(!inter_in, "border (AS-entry) hop was hidden");
            }
        }
    }
}
