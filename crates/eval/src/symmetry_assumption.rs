//! §4.4 / Table 2: how often is the penultimate traceroute hop also on the
//! reverse path?
//!
//! The methodology of the paper, replayed: targets are the /30 neighbours
//! of SNMPv3-responsive router interfaces (so the penultimate hop is
//! likely fingerprintable). For each (source, target): traceroute to the
//! target, take the penultimate hop, then reveal actual reverse hops with
//! spoofed RR pings; classify the penultimate hop as on / not on / unknown
//! using alias evidence, split by intradomain vs interdomain last link.

use crate::campaign::Scale;
use crate::context::EvalContext;
use crate::render::Table;
use crate::stats::fraction;
use revtr::extract_reverse_hops;
use revtr_aliasing::{AliasResolver, Ip2As};
use revtr_netsim::{Addr, Sim};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};

/// Classification counts for one link class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Penultimate hop found on the reverse path.
    pub yes: usize,
    /// SNMP-fingerprintable but absent from the reverse path.
    pub no: usize,
    /// No reliable alias information.
    pub unknown: usize,
}

impl Counts {
    /// Total classified paths.
    pub fn total(&self) -> usize {
        self.yes + self.no + self.unknown
    }

    /// The paper's `Yes / (Yes + No)` column.
    pub fn yes_over_decided(&self) -> f64 {
        fraction(self.yes, self.yes + self.no)
    }
}

/// Table 2's three rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymmetryAssumptionReport {
    /// Intradomain last links.
    pub intra: Counts,
    /// Interdomain last links.
    pub inter: Counts,
}

impl SymmetryAssumptionReport {
    /// Combined counts.
    pub fn all(&self) -> Counts {
        Counts {
            yes: self.intra.yes + self.inter.yes,
            no: self.intra.no + self.inter.no,
            unknown: self.intra.unknown + self.inter.unknown,
        }
    }

    /// Render Table 2.
    pub fn table2(&self) -> Table {
        let mut t = Table::new(
            "Table 2: penultimate traceroute hop also on the reverse path?",
            &["Link", "Yes", "No", "Unknown", "Yes/(Yes+No)"],
        );
        for (name, c) in [
            ("Intradomain", self.intra),
            ("Interdomain", self.inter),
            ("All", self.all()),
        ] {
            let n = c.total().max(1) as f64;
            t.row(&[
                name.to_string(),
                format!("{:.2}", c.yes as f64 / n),
                format!("{:.2}", c.no as f64 / n),
                format!("{:.2}", c.unknown as f64 / n),
                format!("{:.2}", c.yes_over_decided()),
            ]);
        }
        t
    }
}

/// The VPs of `target`'s ingress plan, in plan order: its announced
/// prefix's, or for an infrastructure address its AS's first prefix's.
pub(crate) fn ingress_vps(ingress: &IngressDb, sim: &Sim, target: Addr) -> Vec<Addr> {
    let topo = sim.topo();
    let plan_prefix = (topo.prefix_of(target))
        .or_else(|| (topo.block_owner(target)).and_then(|a| topo.as_prefixes(a).get(0)));
    plan_prefix
        .map(|p| {
            ingress
                .ingress_plan(p)
                .into_iter()
                .flat_map(|q| q.vps)
                .collect()
        })
        .unwrap_or_default()
}

/// Reveal reverse hops toward `src` from `target` with spoofed RR pings
/// from the first nine VPs of `plan`, in batches of three (the §4.3
/// discipline): the first reply that reveals any.
pub(crate) fn reveal_reverse_hops(
    prober: &Prober<'_>,
    plan: &[Addr],
    target: Addr,
    src: Addr,
) -> Vec<Addr> {
    for chunk in plan[..plan.len().min(9)].chunks(3) {
        let pairs: Vec<(Addr, Addr)> = chunk.iter().map(|&vp| (vp, target)).collect();
        let replies = prober.spoofed_rr_batch(&pairs, src).replies;
        for (reply, _) in replies.into_iter().flatten() {
            if let Some(rev) = extract_reverse_hops(&reply.slots, target) {
                if !rev.is_empty() {
                    return rev.to_vec();
                }
            }
        }
    }
    Vec::new()
}

/// Run the Table 2 study in the world of `(scale, seed)`, over up to
/// `max(n_revtrs / 2, 50)` /30-derived targets and up to 5 sources each.
pub fn run(scale: Scale, seed: u64) -> SymmetryAssumptionReport {
    let ctx = EvalContext::of(scale, seed);
    let max_targets = (ctx.scale.n_revtrs / 2).max(50);
    let ingress = ctx.build_ingress(&ctx.prober(), Heuristics::FULL);
    let prober = ctx.prober();
    let resolver = AliasResolver::new(&ctx.sim);
    let ip2as = Ip2As::new(&ctx.sim);
    let sources: Vec<Addr> = ctx.sources();

    // Targets: the /30 peers of SNMP-responsive interfaces, sampled
    // uniformly across the whole topology (the ITDK dataset spans core and
    // edge alike).
    let mut link_order: Vec<usize> = (0..ctx.sim.topo().links.len()).collect();
    {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.scale.seed ^ 0x7ab1e2);
        link_order.shuffle(&mut rng);
    }
    let mut targets = Vec::new();
    for li in link_order {
        let l = &ctx.sim.topo().links[li];
        for (near, far) in [(l.addr_a, l.addr_b), (l.addr_b, l.addr_a)] {
            if resolver.snmp_id(near).is_some() {
                targets.push(far);
            }
        }
        if targets.len() >= max_targets {
            break;
        }
    }
    targets.truncate(max_targets);

    let mut report = SymmetryAssumptionReport::default();
    for &target in &targets {
        for &src in sources.iter().take(5) {
            let Some(tr) = prober.traceroute_fresh(src, target) else {
                continue;
            };
            let Some(penult) = tr
                .hops
                .iter()
                .rev()
                .flatten()
                .find(|&&h| h != target)
                .copied()
            else {
                continue;
            };
            let mut plan = ingress_vps(&ingress, &ctx.sim, target);
            if plan.is_empty() {
                plan = ingress.global_plan().to_vec();
            }
            let rev = reveal_reverse_hops(&prober, &plan, target, src);
            if rev.is_empty() {
                continue; // methodology requires at least one reverse hop
            }
            let on_path = rev.iter().any(|&r| resolver.hop_match(penult, r));
            let class = match (ip2as.map(penult), ip2as.map(target)) {
                (Some(a), Some(b)) if a == b => &mut report.intra,
                (Some(_), Some(_)) => &mut report.inter,
                _ => continue, // unmappable link: out of scope for Table 2
            };
            if on_path {
                class.yes += 1;
            } else if resolver.snmp_id(penult).is_some() {
                // Reliable alias info says the router is absent.
                class.no += 1;
            } else {
                class.unknown += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds_on_smoke_scale() {
        let report = run(Scale::Smoke, 1);
        let all = report.all();
        assert!(all.total() > 0, "no classified paths");
        // The paper's key finding: intradomain symmetry assumptions are far
        // safer than interdomain ones.
        if report.intra.yes + report.intra.no > 0 && report.inter.yes + report.inter.no > 0 {
            assert!(
                report.intra.yes_over_decided() >= report.inter.yes_over_decided(),
                "intra {:.2} should beat inter {:.2}",
                report.intra.yes_over_decided(),
                report.inter.yes_over_decided()
            );
        }
        assert_eq!(report.table2().len(), 3);
    }

    #[test]
    fn counts_arithmetic() {
        let c = Counts {
            yes: 6,
            no: 2,
            unknown: 2,
        };
        assert_eq!(c.total(), 10);
        assert!((c.yes_over_decided() - 0.75).abs() < 1e-9);
    }
}
