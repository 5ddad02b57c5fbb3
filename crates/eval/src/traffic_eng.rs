//! §6.1 / Fig. 7: ingress traffic engineering with reverse-path
//! visibility.
//!
//! A PEERING-style anycast prefix is announced from several sites; the
//! catchment of each monitored destination AS — which revtr 2.0 would
//! reveal by measuring reverse paths — is computed from the multi-origin
//! valley-free routing of [`revtr_netsim::anycast`]. Two TE actions are
//! replayed:
//!
//! * **steering** (Fig. 7 left): poison the dominant transit on one site's
//!   announcement so its routes shift toward the other site;
//! * **balancing** (Fig. 7 right): no-export one site's announcement from
//!   its dominant upstream to even out the split between two sites.

use crate::campaign::Scale;
use crate::context::EvalContext;
use crate::render::Table;
use crate::stats::fraction;
use revtr_netsim::anycast::{anycast_routes, AnycastConfig, AnycastRoutes};
use revtr_netsim::{AsId, AsTier};
use revtr_telemetry::WordMap;

/// Catchment snapshot for a set of monitored ASes.
#[derive(Clone, Debug)]
pub struct CatchmentSnapshot {
    /// Monitored AS → chosen site, for reachable ASes.
    pub catchment: WordMap<AsId, AsId>,
    /// Mean AS-path length to the chosen site (latency proxy).
    pub mean_path_len: f64,
}

/// One TE scenario: before/after snapshots plus context.
#[derive(Clone, Debug)]
pub struct TeScenario {
    /// Scenario label.
    pub name: String,
    /// The announcement sites.
    pub sites: Vec<AsId>,
    /// The AS whose routing the action manipulates.
    pub manipulated: AsId,
    /// Catchments before the TE action.
    pub before: CatchmentSnapshot,
    /// Catchments after.
    pub after: CatchmentSnapshot,
}

/// The §6.1 report.
#[derive(Clone, Debug)]
pub struct TrafficEngReport {
    /// Steering scenario (Fig. 7 left).
    pub steering: TeScenario,
    /// Balancing scenario (Fig. 7 right).
    pub balancing: TeScenario,
}

fn snapshot(routes: &AnycastRoutes, monitored: &[AsId]) -> CatchmentSnapshot {
    let mut catchment = WordMap::default();
    let mut lens = Vec::new();
    for &a in monitored {
        if let Some(site) = routes.catchment[a.index()] {
            catchment.insert(a, site);
            lens.push(routes.dist[a.index()] as f64);
        }
    }
    let mean_path_len = if lens.is_empty() {
        f64::NAN
    } else {
        lens.iter().sum::<f64>() / lens.len() as f64
    };
    CatchmentSnapshot {
        catchment,
        mean_path_len,
    }
}

/// Share of monitored ASes landing at `site`.
pub fn share(snap: &CatchmentSnapshot, site: AsId) -> f64 {
    fraction(
        snap.catchment.values().filter(|&&s| s == site).count(),
        snap.catchment.len(),
    )
}

/// The transit AS most frequently on monitored reverse paths toward
/// `site` (the "Cogent" of the scenario).
fn dominant_transit(
    ctx: &EvalContext,
    routes: &AnycastRoutes,
    monitored: &[AsId],
    site: AsId,
) -> Option<AsId> {
    let mut count: WordMap<AsId, usize> = WordMap::default();
    for &a in monitored {
        if routes.catchment[a.index()] != Some(site) {
            continue;
        }
        if let Some(path) = routes.as_path(a) {
            if path.len() < 3 {
                continue; // no transit hops on a direct path
            }
            for &x in &path[1..path.len() - 1] {
                if ctx.sim.topo().asn(x).tier != AsTier::Stub {
                    *count.entry(x).or_insert(0) += 1;
                }
            }
        }
    }
    count
        .into_iter()
        .max_by_key(|&(a, c)| (c, a.0))
        .map(|(a, _)| a)
}

/// Run both TE scenarios on the topology of `(scale, seed)`.
pub fn run(scale: Scale, seed: u64) -> TrafficEngReport {
    let ctx = &EvalContext::of(scale, seed);
    let topo = ctx.sim.topo();
    // Monitored destinations: the owners of the sampled prefixes (the
    // "15,300 representative groups" of §6.1, scaled).
    let mut monitored: Vec<AsId> = ctx
        .sampled_prefixes()
        .into_iter()
        .map(|p| topo.prefix(p).owner)
        .collect();
    monitored.sort_unstable();
    monitored.dedup();

    // Sites: an education stub (the NEU-like site) and a random other stub
    // (the UFMG-like site); fall back to any two distinct stubs.
    let stubs: Vec<AsId> = topo
        .ases
        .iter()
        .filter(|a| a.tier == AsTier::Stub)
        .map(|a| a.id)
        .collect();
    let edu = topo
        .ases
        .iter()
        .find(|a| a.edu)
        .map(|a| a.id)
        .unwrap_or(stubs[0]);
    let other = stubs
        .iter()
        .copied()
        .find(|&s| s != edu)
        .expect("at least two stubs");
    let salt = ctx.scale.seed ^ 0x7e;

    // --- Scenario 1: steering away from a suboptimal transit. -----------
    let cfg0 = AnycastConfig::new(vec![edu, other]);
    let routes0 = anycast_routes(topo, &cfg0, salt);
    let before = snapshot(&routes0, &monitored);
    // The dominant transit feeding the *other* (far) site.
    let transit = dominant_transit(ctx, &routes0, &monitored, other).unwrap_or(AsId(0));
    // Poison that transit on the far site's announcement: its routes must
    // shift to the edu site.
    let cfg1 = cfg0.clone().block(transit, other);
    let routes1 = anycast_routes(topo, &cfg1, salt);
    let after = snapshot(&routes1, &monitored);
    let steering = TeScenario {
        name: "Steering (poison dominant transit on far site)".into(),
        sites: vec![edu, other],
        manipulated: transit,
        before,
        after,
    };

    // --- Scenario 2: balancing between two providers. --------------------
    let colos: Vec<AsId> = topo.ases.iter().filter(|a| a.colo).map(|a| a.id).collect();
    let (c1, c2) = (colos[0], colos[1 % colos.len()]);
    let cfg0 = AnycastConfig::new(vec![c1, c2]);
    let routes0 = anycast_routes(topo, &cfg0, salt ^ 1);
    let before = snapshot(&routes0, &monitored);
    // Determine the dominant-side site and no-export its announcement from
    // its dominant upstream ("Fusix").
    let dominant_site = if share(&before, c1) >= share(&before, c2) {
        c1
    } else {
        c2
    };
    let upstream = dominant_transit(ctx, &routes0, &monitored, dominant_site).unwrap_or(AsId(0));
    let cfg1 = cfg0.clone().block(upstream, dominant_site);
    let routes1 = anycast_routes(topo, &cfg1, salt ^ 1);
    let after = snapshot(&routes1, &monitored);
    let balancing = TeScenario {
        name: "Balancing (no-export dominant site via its upstream)".into(),
        sites: vec![c1, c2],
        manipulated: upstream,
        before,
        after,
    };

    TrafficEngReport {
        steering,
        balancing,
    }
}

impl TrafficEngReport {
    /// Render the Fig. 7 summary.
    pub fn fig7(&self) -> Table {
        let mut t = Table::new(
            "Figure 7: traffic engineering with reverse-path visibility",
            &[
                "Scenario",
                "Site",
                "share before",
                "share after",
                "mean AS-path before",
                "mean AS-path after",
            ],
        );
        for sc in [&self.steering, &self.balancing] {
            for &site in &sc.sites {
                t.row(&[
                    sc.name.clone(),
                    site.to_string(),
                    format!("{:.1}%", 100.0 * share(&sc.before, site)),
                    format!("{:.1}%", 100.0 * share(&sc.after, site)),
                    format!("{:.2}", sc.before.mean_path_len),
                    format!("{:.2}", sc.after.mean_path_len),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn te_actions_shift_catchments() {
        let report = run(Scale::Smoke, 1);

        // Steering: the far site loses share, the near (edu) site gains.
        let sc = &report.steering;
        let (near, far) = (sc.sites[0], sc.sites[1]);
        let near_gain = share(&sc.after, near) - share(&sc.before, near);
        let far_loss = share(&sc.before, far) - share(&sc.after, far);
        assert!(
            near_gain >= 0.0 && far_loss >= 0.0,
            "poisoning must shift share toward the near site \
             (near {near_gain:+.3}, far {far_loss:+.3})"
        );
        // If a site AS is itself monitored, it serves itself.
        if let Some(&site) = sc.after.catchment.get(&near) {
            assert_eq!(site, near);
        }

        // Balancing: the split becomes no more skewed than before.
        let b = &report.balancing;
        let skew = |s: &CatchmentSnapshot| (share(s, b.sites[0]) - share(s, b.sites[1])).abs();
        assert!(
            skew(&b.after) <= skew(&b.before) + 1e-9,
            "no-export made the split worse: {:.3} -> {:.3}",
            skew(&b.before),
            skew(&b.after)
        );
        assert!(report.fig7().len() >= 4);
    }
}
