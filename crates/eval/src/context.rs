//! Shared evaluation context: simulator, workloads, and system assembly.

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

/// Workload sizes for an evaluation run. Everything is scaled down from
/// the paper's campaigns; `smoke` keeps tests fast, `standard` is the
/// reproduction default used by `reproduce_all` and the ci.sh gates.
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

impl EvalScale {
    /// Small and fast, for unit tests.
    pub fn smoke() -> EvalScale {
        EvalScale {
            prefix_sample: 30,
            n_revtrs: 25,
            atlas_size: 30,
            atlas_pool: 120,
            n_sources: 3,
            seed: DEFAULT_SEED,
        }
    }

    /// The reproduction default (minutes of runtime in release mode).
    pub fn standard() -> EvalScale {
        EvalScale {
            prefix_sample: 900,
            n_revtrs: 2000,
            atlas_size: 250,
            atlas_pool: 1200,
            n_sources: 8,
            seed: DEFAULT_SEED,
        }
    }
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

    /// Tiny topology + smoke scale (tests).
    pub fn smoke() -> EvalContext {
        EvalContext::new(SimConfig::tiny(), EvalScale::smoke())
    }

    /// Paper-era topology + standard scale.
    pub fn standard() -> EvalContext {
        EvalContext::new(SimConfig::era_2020(), EvalScale::standard())
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

    /// Build the background ingress database (shared across experiments —
    /// this is the expensive weekly measurement of §4.3).
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
        let ctx = EvalContext::smoke();
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
        let ctx = EvalContext::smoke();
        let a = ctx.sampled_prefixes();
        let b = ctx.sampled_prefixes();
        assert_eq!(a, b);
        assert!(a.len() <= ctx.scale.prefix_sample);
    }

    #[test]
    fn system_assembly_runs_a_measurement() {
        let ctx = EvalContext::smoke();
        let prober = ctx.prober();
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let sys = ctx.build_system(prober, EngineConfig::revtr2(), ingress);
        let (d, s) = ctx.workload()[0];
        let r = sys.measure(d, s);
        assert_eq!(r.dst, d);
    }
}
