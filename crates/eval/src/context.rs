//! One world: a simulated Internet plus its workload helpers and system
//! assembly. [`Campaign::run_with`](crate::campaign::Campaign::run_with)
//! builds one per campaign, and so does every paper experiment that
//! probes, each from its own `(Scale, seed)`: no two experiments share a
//! world.

use crate::campaign::Scale;
use rand::prelude::*;
use rand::rngs::StdRng;
use revtr::{EngineConfig, RevtrSystem};
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, PrefixId, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

/// The master seed every entry point runs under unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// Workload sizes for an evaluation run, scaled down from the paper's
/// campaigns ([`Scale::eval_scale`]).
#[derive(Clone, Copy, Debug)]
pub struct EvalScale {
    /// Prefixes probed for the ingress DB and used as workload targets.
    pub prefix_sample: usize,
    /// Reverse traceroutes per experiment workload.
    pub n_revtrs: usize,
    /// Traceroutes per source atlas.
    pub atlas_size: usize,
    /// Atlas probe population size.
    pub atlas_pool: usize,
    /// Sources (M-Lab-like) used by campaigns.
    pub n_sources: usize,
    /// Master seed.
    pub seed: u64,
}

/// An evaluation context: a simulated Internet plus workload helpers.
pub struct EvalContext {
    /// The simulated Internet.
    pub sim: Sim,
    /// Workload sizes.
    pub scale: EvalScale,
}

impl EvalContext {
    /// Build a context over a given topology config.
    pub fn new(cfg: SimConfig, scale: EvalScale) -> EvalContext {
        EvalContext {
            sim: Sim::build(cfg, scale.seed),
            scale,
        }
    }

    /// The world `scale` runs its experiments in, under `seed`.
    pub fn of(scale: Scale, seed: u64) -> EvalContext {
        EvalContext::new(scale.sim_config(), scale.eval_scale(seed))
    }

    /// All vantage point host addresses.
    pub fn vps(&self) -> Vec<Addr> {
        self.sim.topo().vp_sites.iter().map(|v| v.host).collect()
    }

    /// The sources used by campaigns (the first `n_sources` VP sites).
    pub fn sources(&self) -> Vec<Addr> {
        self.vps().into_iter().take(self.scale.n_sources).collect()
    }

    /// A deterministic sample of announced prefixes.
    pub fn sampled_prefixes(&self) -> Vec<PrefixId> {
        let mut all: Vec<PrefixId> = self.sim.topo().prefixes.iter().map(|p| p.id).collect();
        let mut rng = StdRng::seed_from_u64(self.scale.seed ^ 0x9a3f);
        all.shuffle(&mut rng);
        all.truncate(self.scale.prefix_sample);
        all.sort_unstable();
        all
    }

    /// One RR-responsive destination per prefix, if the prefix has one
    /// within the first handful of host addresses.
    pub fn responsive_dest_in(&self, p: PrefixId) -> Option<Addr> {
        self.sim
            .host_addrs(p)
            .take(24)
            .find(|&a| self.sim.behavior().host_rr_responsive(a))
    }

    /// The campaign workload: `(dst, src)` pairs — one destination per
    /// sampled prefix, sources round-robin — truncated to `n_revtrs`.
    pub fn workload(&self) -> Vec<(Addr, Addr)> {
        let sources = self.sources();
        let mut out = Vec::new();
        'outer: for round in 0..8 {
            for (i, p) in self.sampled_prefixes().into_iter().enumerate() {
                let Some(d) = self.responsive_dest_near(p, round) else {
                    continue;
                };
                let src = sources[(i + round) % sources.len()];
                if d != src {
                    out.push((d, src));
                }
                if out.len() >= self.scale.n_revtrs {
                    break 'outer;
                }
            }
        }
        out
    }

    /// The `k`-th responsive destination in a prefix (distinct hosts for
    /// repeated rounds over the same prefixes).
    pub fn responsive_dest_near(&self, p: PrefixId, k: usize) -> Option<Addr> {
        self.sim
            .host_addrs(p)
            .filter(|&a| self.sim.behavior().host_rr_responsive(a))
            .nth(k)
    }

    /// A fresh prober over this context's simulator.
    pub fn prober(&self) -> Prober<'_> {
        Prober::new(&self.sim)
    }

    /// Build the background ingress database (the expensive weekly
    /// measurement of §4.3).
    pub fn build_ingress(&self, prober: &Prober<'_>, h: Heuristics) -> IngressDb {
        IngressDb::build(prober, &self.vps(), &self.sampled_prefixes(), h)
    }

    /// The atlas probe population.
    pub fn atlas_pool(&self) -> Vec<Addr> {
        select_atlas_probes(&self.sim, self.scale.atlas_pool, self.scale.seed ^ 0x77)
    }

    /// Assemble a measurement system with the context's scale applied.
    pub fn build_system<'s>(
        &'s self,
        prober: Prober<'s>,
        mut cfg: EngineConfig,
        ingress: Arc<IngressDb>,
    ) -> RevtrSystem<'s> {
        cfg.atlas_size = self.scale.atlas_size;
        RevtrSystem::new(prober, cfg, self.vps(), ingress, self.atlas_pool())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_context_produces_workload() {
        let ctx = EvalContext::of(Scale::Smoke, DEFAULT_SEED);
        let w = ctx.workload();
        assert!(!w.is_empty());
        assert!(w.len() <= ctx.scale.n_revtrs);
        for &(d, s) in &w {
            assert!(ctx.sim.behavior().host_rr_responsive(d));
            assert!(ctx.sim.is_vp_host(s));
            assert_ne!(d, s);
        }
    }

    #[test]
    fn sampled_prefixes_deterministic_and_bounded() {
        let ctx = EvalContext::of(Scale::Smoke, DEFAULT_SEED);
        let a = ctx.sampled_prefixes();
        let b = ctx.sampled_prefixes();
        assert_eq!(a, b);
        assert!(a.len() <= ctx.scale.prefix_sample);
    }
}
