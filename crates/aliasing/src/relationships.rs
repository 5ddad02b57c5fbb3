//! A CAIDA-style AS relationship dataset: correct but incomplete.
//!
//! The paper uses CAIDA's serial-2 relationships and customer cones for the
//! suspicious-link heuristic (§5.2.2) and the asymmetry study (§6.2).
//! CAIDA's inference misses some links, so this measured view keeps each
//! true relationship with a configurable probability (default 90%) — the
//! missing 10% is what makes the suspicious-link heuristic fire.

use revtr_netsim::hash::{chance, mix3};
use revtr_netsim::{AsId, Rel, Sim};
use revtr_probing::{Prober, WordHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Default fraction of true relationships present in the dataset.
pub const DEFAULT_COVERAGE: f64 = 0.90;

/// Paper §5.2.2: an AS is "small" if it has ≤ 5 providers and ≤ 10 ASes in
/// its customer cone.
pub const SMALL_AS_MAX_PROVIDERS: usize = 5;
/// Customer-cone bound of a "small" AS.
pub const SMALL_AS_MAX_CONE: usize = 10;

/// Measured AS-relationship dataset.
#[derive(Clone, Debug)]
pub struct RelationshipDb {
    /// (a, b) → b's relationship to a, for known pairs (both orders stored).
    /// Only looked up by key, so its order never escapes; a fixed-key
    /// hasher leaves no per-process state in it either way.
    rels: HashMap<(AsId, AsId), Rel, BuildHasherDefault<WordHasher>>,
    /// Customer cone sizes computed over *known* customer edges.
    cone: Vec<usize>,
    /// Known providers per AS.
    providers: Vec<Vec<AsId>>,
}

impl RelationshipDb {
    /// Build the dataset from the sim, keeping each relationship with
    /// probability `coverage` (seeded by the sim's seed).
    pub fn build(sim: &Sim, coverage: f64) -> RelationshipDb {
        let topo = sim.topo();
        let n = topo.ases.len();
        let mut rels = HashMap::default();
        let mut providers: Vec<Vec<AsId>> = vec![Vec::new(); n];
        let mut customers: Vec<Vec<AsId>> = vec![Vec::new(); n];
        for a in &topo.ases {
            for (b, rel) in topo.as_neighbors(a.id) {
                if a.id.0 > b.0 {
                    continue; // handle each pair once
                }
                let keep = chance(
                    mix3(sim.seed() ^ 0xca1d_a5e7, a.id.0 as u64, b.0 as u64),
                    coverage,
                );
                if !keep {
                    continue;
                }
                rels.insert((a.id, b), rel);
                rels.insert((b, a.id), rel.flip());
                match rel {
                    Rel::Provider => {
                        providers[a.id.index()].push(b);
                        customers[b.index()].push(a.id);
                    }
                    Rel::Customer => {
                        providers[b.index()].push(a.id);
                        customers[a.id.index()].push(b);
                    }
                    Rel::Peer => {}
                }
            }
        }
        // Customer cones over the known customer edges: a cone is a count,
        // so the walk's order cannot escape. `seen[x] == a` marks `x` as
        // counted in `a`'s cone, so the marks never need clearing.
        let mut cone = vec![0usize; n];
        let mut seen = vec![usize::MAX; n];
        let mut stack = Vec::new();
        for (a, slot) in cone.iter_mut().enumerate() {
            stack.push(AsId(a as u32));
            while let Some(x) = stack.pop() {
                if seen[x.index()] == a {
                    continue;
                }
                seen[x.index()] = a;
                *slot += 1;
                for &c in &customers[x.index()] {
                    if seen[c.index()] != a {
                        stack.push(c);
                    }
                }
            }
        }
        RelationshipDb {
            rels,
            cone,
            providers,
        }
    }

    /// Build with default coverage.
    pub fn new(sim: &Sim) -> RelationshipDb {
        Self::build(sim, DEFAULT_COVERAGE)
    }

    /// The dataset a deployment downloads for the world `prober`
    /// measures: [`RelationshipDb::new`].
    pub fn for_prober(prober: &Prober<'_>) -> RelationshipDb {
        Self::new(prober.sim())
    }

    /// Known relationship: what `b` is to `a`, if the dataset has the pair.
    pub fn rel(&self, a: AsId, b: AsId) -> Option<Rel> {
        self.rels.get(&(a, b)).copied()
    }

    /// Known providers of `a`.
    pub fn providers(&self, a: AsId) -> &[AsId] {
        &self.providers[a.index()]
    }

    /// Customer cone size of `a` (known edges only; includes `a`).
    pub fn cone_size(&self, a: AsId) -> usize {
        self.cone[a.index()]
    }

    /// Paper §5.2.2 smallness test.
    pub fn is_small(&self, a: AsId) -> bool {
        self.providers(a).len() <= SMALL_AS_MAX_PROVIDERS && self.cone_size(a) <= SMALL_AS_MAX_CONE
    }

    /// Suspicious AS link heuristic (§5.2.2): the link `s → p` is
    /// suspicious if `s` is small, `p` is a provider of one of `s`'s
    /// providers, and no relationship between `s` and `p` is known —
    /// suggesting a router between them forwarded RR packets without
    /// stamping.
    pub fn is_suspicious_link(&self, s: AsId, p: AsId) -> bool {
        if self.rel(s, p).is_some() || !self.is_small(s) {
            return false;
        }
        self.providers(s)
            .iter()
            .any(|&mid| self.providers(mid).contains(&p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::{AsTier, SimConfig};

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 6)
    }

    #[test]
    fn coverage_controls_completeness() {
        let s = sim();
        let full = RelationshipDb::build(&s, 1.0);
        let partial = RelationshipDb::build(&s, 0.5);
        let mut full_known = 0;
        let mut partial_known = 0;
        for a in &s.topo().ases {
            for (b, rel) in s.topo().as_neighbors(a.id) {
                if full.rel(a.id, b) == Some(rel) {
                    full_known += 1;
                }
                if partial.rel(a.id, b).is_some() {
                    partial_known += 1;
                }
            }
        }
        let total: usize = s.topo().ases.iter().map(|a| a.neighbors.len()).sum();
        assert_eq!(full_known, total, "full coverage keeps everything");
        assert!(partial_known < total, "partial coverage must drop links");
        assert!(partial_known > total / 4, "but not too many");
    }

    #[test]
    fn known_rels_are_never_wrong() {
        let s = sim();
        let db = RelationshipDb::new(&s);
        for a in &s.topo().ases {
            for (b, rel) in s.topo().as_neighbors(a.id) {
                if let Some(r) = db.rel(a.id, b) {
                    assert_eq!(r, rel, "dataset is incomplete, not incorrect");
                }
            }
        }
    }

    #[test]
    fn cones_and_smallness() {
        let s = sim();
        let db = RelationshipDb::build(&s, 1.0);
        for a in &s.topo().ases {
            match a.tier {
                AsTier::Stub => {
                    assert_eq!(db.cone_size(a.id), 1);
                    assert!(db.is_small(a.id));
                }
                AsTier::Tier1 => {
                    assert!(db.cone_size(a.id) > SMALL_AS_MAX_CONE);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn suspicious_link_requires_missing_relationship() {
        let s = sim();
        let db = RelationshipDb::build(&s, 1.0);
        // With full coverage, a stub and its own provider are never
        // suspicious (the relationship is known).
        for a in s.topo().ases.iter().filter(|a| a.tier == AsTier::Stub) {
            for (b, rel) in s.topo().as_neighbors(a.id) {
                if rel == Rel::Provider {
                    assert!(!db.is_suspicious_link(a.id, b));
                }
            }
        }
    }
}
