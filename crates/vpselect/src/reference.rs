//! The survey as it was written before it was compiled: owning, map-keyed,
//! allocate-as-you-go. Kept for tests only — the differential proptests
//! below hold [`crate::parse::path_view`] and [`crate::ingress::probe_prefix`]
//! to it, output for output and probe for probe.

use crate::parse::{parse_rr, Heuristics};
use crate::{IngressInfo, RR_RANGE, VPS_PER_INGRESS};
use revtr_netsim::hash::mix3;
use revtr_netsim::{Addr, Prefix, PrefixId};
use revtr_probing::Prober;
use std::collections::HashMap;

/// [`crate::parse::RrParse::loop_span`], found with an owned `seen` list.
fn loop_span(slots: &[Addr]) -> Option<(usize, usize)> {
    for i in 0..slots.len() {
        for j in i + 2..slots.len() {
            if slots[i] == slots[j] {
                let mut seen: Vec<Addr> = Vec::new();
                if slots[i + 1..j].iter().all(|x| {
                    let fresh = !seen.contains(x);
                    seen.push(*x);
                    fresh
                }) {
                    return Some((i, j));
                }
            }
        }
    }
    None
}

/// `(dest_dist, candidates)` of one RR reply.
pub(crate) fn path_view(
    slots: &[Addr],
    prefix: Prefix,
    h: Heuristics,
) -> (Option<usize>, Vec<Addr>) {
    let p = parse_rr(slots, prefix);
    assert_eq!(p.loop_span, loop_span(slots), "loop scan of {slots:?}");
    if let Some(cut) = p.in_prefix_idx {
        return (Some(cut), dedup(slots[..=cut].to_vec()));
    }
    if h.double_stamp {
        if let Some(cut) = p.double_stamp_idx {
            return (Some(cut), dedup(slots[..=cut].to_vec()));
        }
    }
    if h.loops {
        if let Some((i, j)) = p.loop_span {
            return (Some(i), dedup(slots[..j].to_vec()));
        }
    }
    (None, Vec::new())
}

fn dedup(mut v: Vec<Addr>) -> Vec<Addr> {
    let mut seen = Vec::with_capacity(v.len());
    v.retain(|a| {
        if seen.contains(a) || a.is_private() {
            false
        } else {
            seen.push(*a);
            true
        }
    });
    v
}

/// What one vantage point learned about one prefix (merged over the two
/// probed destinations).
#[derive(Clone, Debug, Default)]
pub(crate) struct VpView {
    /// Mean RR slot distance to the destinations, when reached.
    pub dest_dist: Option<f64>,
    /// Ingress candidates present on both forward paths, with the slot
    /// distance at which each was seen.
    pub candidates: Vec<(Addr, usize)>,
}

impl VpView {
    pub fn in_range(&self) -> bool {
        matches!(self.dest_dist, Some(d) if d <= RR_RANGE as f64)
    }
}

/// Everything the reference learns about one prefix, per-VP views included.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixInfo {
    pub dests: Vec<Addr>,
    pub views: HashMap<Addr, VpView>,
    pub ingresses: Vec<IngressInfo>,
    pub fallback: Vec<Addr>,
}

impl PrefixInfo {
    /// What `core::system::closest_vp` used to compute from the views on
    /// every timestamp step.
    pub fn closest_vp(&self) -> Option<Addr> {
        self.views
            .iter()
            .filter_map(|(&vp, view)| view.dest_dist.map(|d| (d, vp)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)))
            .map(|(_, vp)| vp)
    }

    /// What `third_destination_consistent` used to collect into a set.
    pub fn candidates(&self) -> Vec<Addr> {
        let mut all: Vec<Addr> = self
            .views
            .values()
            .flat_map(|v| v.candidates.iter().map(|&(a, _)| a))
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Probe one prefix from all VPs and derive its [`PrefixInfo`].
pub(crate) fn probe_prefix(
    prober: &Prober<'_>,
    vps: &[Addr],
    p: PrefixId,
    h: Heuristics,
) -> PrefixInfo {
    let sim = prober.sim();
    let prefix = sim.topo().prefix(p).prefix;

    let pinger = match vps.first() {
        Some(&v) => v,
        None => return PrefixInfo::default(),
    };
    let mut dests: Vec<Addr> = Vec::new();
    for cand in sim.host_addrs(p).take(crate::ingress::DEST_SCAN_LIMIT) {
        if prober.ping(pinger, cand).is_some() {
            dests.push(cand);
            if dests.len() == 2 {
                break;
            }
        }
    }
    if dests.is_empty() {
        return PrefixInfo::default();
    }

    let mut views: HashMap<Addr, VpView> = HashMap::new();
    for &vp in vps {
        let mut per_dest: Vec<(Option<usize>, Vec<Addr>)> = Vec::new();
        for &d in &dests {
            if let Some(r) = prober.rr_ping(vp, d) {
                per_dest.push(path_view(&r.slots, prefix, h));
            }
        }
        if per_dest.is_empty() {
            continue;
        }
        let dists: Vec<usize> = per_dest.iter().filter_map(|v| v.0).collect();
        let dest_dist = if dists.is_empty() {
            None
        } else {
            Some(dists.iter().sum::<usize>() as f64 / dists.len() as f64)
        };
        let first = &per_dest[0];
        let candidates: Vec<(Addr, usize)> = first
            .1
            .iter()
            .enumerate()
            .filter(|(_, a)| per_dest[1..].iter().all(|v| v.1.contains(a)))
            .map(|(i, &a)| (a, i))
            .collect();
        views.insert(
            vp,
            VpView {
                dest_dist,
                candidates,
            },
        );
    }

    let mut uncovered: Vec<Addr> = views
        .iter()
        .filter(|(_, v)| !v.candidates.is_empty())
        .map(|(&vp, _)| vp)
        .collect();
    uncovered.sort_unstable();
    let mut ingresses: Vec<IngressInfo> = Vec::new();
    while !uncovered.is_empty() {
        let mut cover: HashMap<Addr, Vec<Addr>> = HashMap::new();
        for &vp in &uncovered {
            for &(cand, _) in &views[&vp].candidates {
                cover.entry(cand).or_default().push(vp);
            }
        }
        let Some((&best, _)) = cover.iter().max_by_key(|(a, vps_c)| {
            (
                vps_c.len(),
                mix3(sim.seed() ^ 0x5e7c, a.0 as u64, p.0 as u64), // random tie
            )
        }) else {
            break;
        };
        let mut covered = cover.remove(&best).expect("winner exists");
        covered.sort_by_key(|vp| {
            views[vp]
                .candidates
                .iter()
                .find(|(a, _)| *a == best)
                .map(|&(_, d)| d)
                .unwrap_or(usize::MAX)
        });
        uncovered.retain(|vp| !covered.contains(vp));
        ingresses.push(IngressInfo {
            addr: best,
            cover: covered.len(),
            ranked_vps: covered.into_iter().take(VPS_PER_INGRESS).collect(),
        });
    }
    ingresses.sort_by_key(|i| std::cmp::Reverse(i.cover));

    let mut fallback: Vec<(Addr, f64)> = views
        .iter()
        .filter(|(_, v)| v.in_range())
        .map(|(&vp, v)| (vp, v.dest_dist.unwrap_or(f64::MAX)))
        .collect();
    fallback.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));

    PrefixInfo {
        dests,
        views,
        ingresses,
        fallback: fallback.into_iter().map(|(vp, _)| vp).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingress;
    use proptest::prelude::*;
    use revtr_netsim::{Sim, SimConfig};

    /// Addresses that repeat within nine slots often enough to matter: half
    /// from six around the test prefix's lower edge, a quarter from three of
    /// 10/8, the rest from the wide public range.
    fn arb_slot() -> impl Strategy<Value = Addr> {
        (0u32..0x0100_0000).prop_map(|v| match v % 12 {
            k @ 0..6 => Addr(0x0B10_7FFD + k),
            k @ 6..9 => Addr::new(10, 0, 0, k as u8),
            _ => Addr(0x0B00_0000 + (v >> 4) % 0x0040_0000),
        })
    }

    fn arb_heuristics() -> impl Strategy<Value = Heuristics> {
        const LADDER: [Heuristics; 3] = [
            Heuristics::INGRESS_ONLY,
            Heuristics::WITH_DOUBLE,
            Heuristics::FULL,
        ];
        (0usize..3).prop_map(|i| LADDER[i])
    }

    /// `(cover, addr, ranked VPs)` per ingress, in plan order.
    fn plan(ingresses: &[IngressInfo]) -> Vec<(usize, Addr, &[Addr])> {
        ingresses
            .iter()
            .map(|i| (i.cover, i.addr, &i.ranked_vps[..]))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The inline parse agrees with the owning one on every slot list
        /// an RR reply can carry — repeats and private addresses included.
        #[test]
        fn path_view_matches_reference(
            slots in proptest::collection::vec(arb_slot(), 0..10),
            h in arb_heuristics(),
        ) {
            let prefix = Prefix::new(Addr(0x0B10_8000), 24);
            let view = crate::parse::path_view(&slots, prefix, h);
            let (dest_dist, candidates) = path_view(&slots, prefix, h);
            prop_assert_eq!(view.dest_dist, dest_dist);
            prop_assert_eq!(&view.candidates[..], &candidates[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The compiled survey is the reference survey: same probes in the
        /// same order (equal counters and clock on twin simulators), same
        /// plan, and the same answers to everything that used to be read
        /// off the per-VP views — under a permuted VP list too, and with
        /// more VPs than one word of the in-range set holds.
        #[test]
        fn probe_prefix_matches_reference(
            seed in (0usize..3).prop_map(|i| [17u64, 19, 42][i]),
            h in arb_heuristics(),
            rotation in 0usize..70,
            n_vp_sites in (0usize..2).prop_map(|i| [10, 70][i]),
        ) {
            let mut cfg = SimConfig::tiny();
            cfg.topology.n_vp_sites = n_vp_sites;
            let sim_ref = Sim::build(cfg.clone(), seed);
            let sim_new = Sim::build(cfg, seed);
            let mut vps: Vec<Addr> = sim_ref.topo().vp_sites.iter().map(|v| v.host).collect();
            prop_assert_eq!(vps.len(), n_vp_sites);
            vps.rotate_left(rotation % n_vp_sites);
            let (reference, compiled) = (Prober::new(&sim_ref), Prober::new(&sim_new));
            let (survey_ref, survey_new) =
                (reference.with_cache_enabled(false), compiled.with_cache_enabled(false));
            let (mut contested, mut beyond_one_word) = (0, 0);
            for p in sim_ref.topo().prefixes.iter().map(|p| p.id) {
                let want = probe_prefix(&survey_ref, &vps, p, h);
                let got = ingress::probe_prefix(&survey_new, &vps, p, h);
                prop_assert_eq!(&got.dests, &want.dests);
                prop_assert_eq!(plan(&got.ingresses), plan(&want.ingresses));
                prop_assert_eq!(&got.fallback, &want.fallback);
                for (at, vp) in vps.iter().enumerate() {
                    let in_range = want.views.get(vp).is_some_and(VpView::in_range);
                    prop_assert!(got.in_range_at(at) == in_range, "{vp} in range of {p}");
                }
                prop_assert!(!got.in_range_at(vps.len()));
                prop_assert_eq!(got.closest_vp(), want.closest_vp());
                prop_assert_eq!(got.candidates(), &want.candidates()[..]);
                prop_assert_eq!(
                    compiled.counters().snapshot(),
                    reference.counters().snapshot()
                );
                prop_assert_eq!(compiled.clock().now_ms(), reference.clock().now_ms());
                contested += usize::from(want.ingresses.len() > 1);
                beyond_one_word += (64..vps.len()).filter(|&at| got.in_range_at(at)).count();
            }
            // The comparison has something to compare: set covers that took
            // several picks, and in-range VPs past the set's first word.
            prop_assert!(contested >= 5, "{contested} multi-ingress prefixes");
            prop_assert!(n_vp_sites <= 64 || beyond_one_word > 0);
        }
    }
}
