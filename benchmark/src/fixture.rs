//! Set-up shared by the three warm workloads: the background state a
//! deployed revtr 2.0 has before the first request arrives.

use std::sync::Arc;

use revtr::RevtrSystem;
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, PrefixId, Sim};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};

use crate::config::{self, ATLAS_POOL, ATLAS_POOL_SEED, HOSTS_PER_PREFIX, N_SOURCES};
use crate::inputs::DestRow;
use crate::spans::{SpanBuf, ROOT, SETUP_ROUND};

/// All vantage point hosts.
pub fn vps(sim: &Sim) -> Vec<Addr> {
    sim.topo().vp_sites.iter().map(|v| v.host).collect()
}

/// All announced prefixes.
pub fn prefixes(sim: &Sim) -> Vec<PrefixId> {
    sim.topo().prefixes.iter().map(|p| p.id).collect()
}

/// The sources campaigns measure toward: the first VP sites.
pub fn sources(sim: &Sim) -> Vec<Addr> {
    vps(sim).into_iter().take(N_SOURCES).collect()
}

/// Everything built once per run, none of it borrowing the simulator.
pub struct Fixture {
    pub vps: Vec<Addr>,
    pub sources: Vec<Addr>,
    pub ingress: Arc<IngressDb>,
    pub pool: Vec<Addr>,
    pub table: Vec<DestRow>,
    /// Surveyed prefixes with at least one ingress ÷ surveyed prefixes.
    pub ingress_found_ratio: f64,
}

impl Fixture {
    /// The full background pipeline: survey every prefix from every VP,
    /// draw the atlas probe population, tabulate destinations.
    pub fn build(sim: &Sim, spans: &mut SpanBuf) -> Fixture {
        let vps = vps(sim);
        let prefixes = prefixes(sim);
        let span = spans.open("vpselect.survey", ROOT, SETUP_ROUND);
        let ingress = IngressDb::build(&Prober::new(sim), &vps, &prefixes, Heuristics::FULL);
        spans.close(span);
        let found = ingress
            .prefixes()
            .filter(|(_, info)| !info.ingresses.is_empty())
            .count();
        let span = spans.open("atlas.select_probes", ROOT, SETUP_ROUND);
        let pool = select_atlas_probes(sim, ATLAS_POOL, ATLAS_POOL_SEED);
        spans.close(span);
        Fixture {
            sources: vps.iter().copied().take(N_SOURCES).collect(),
            table: dest_table(sim, &prefixes),
            ingress_found_ratio: found as f64 / prefixes.len() as f64,
            ingress: Arc::new(ingress),
            pool,
            vps,
        }
    }

    /// A fresh measurement system over a fresh prober: cold measurement
    /// cache and stop sets, warm simulator route caches.
    pub fn system<'s>(&self, prober: Prober<'s>) -> RevtrSystem<'s> {
        RevtrSystem::new(
            prober,
            config::engine_config(),
            self.vps.clone(),
            Arc::clone(&self.ingress),
            self.pool.clone(),
        )
    }
}

/// The first [`HOSTS_PER_PREFIX`] RR-responsive non-VP hosts of every
/// prefix that has that many (in the era-2020 topology all but a handful).
pub fn dest_table(sim: &Sim, prefixes: &[PrefixId]) -> Vec<DestRow> {
    prefixes
        .iter()
        .filter_map(|&prefix| {
            let mut hosts = sim
                .host_addrs(prefix)
                .filter(|&a| sim.behavior().host_rr_responsive(a) && !sim.is_vp_host(a));
            let mut row = [Addr(0); HOSTS_PER_PREFIX];
            for slot in &mut row {
                *slot = hosts.next()?;
            }
            Some(DestRow { prefix, hosts: row })
        })
        .collect()
}
