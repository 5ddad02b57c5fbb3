//! Appx. E: quantifying violations of destination-based routing.
//!
//! The methodology, replayed: reveal at least two reverse hops `(R, R')`
//! toward a source `S` with a spoofed RR ping; then spoof-ping `R` itself
//! as `S` and check whether the reply still traverses `R'`. Tuples that do
//! not are violation candidates; repeated probes separate per-packet load
//! balancers (multiple next hops across probes) from genuine violators
//! (stable but source-dependent paths).

use crate::context::EvalContext;
use crate::render::Table;
use crate::stats::fraction;
use revtr::extract_reverse_hops;
use revtr_aliasing::{AliasResolver, Ip2As};
use revtr_netsim::Addr;
use revtr_probing::Prober;
use revtr_vpselect::IngressDb;
use std::sync::Arc;

/// Appx. E outcome counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbrReport {
    /// `(R, R', S)` tuples tested.
    pub tuples: usize,
    /// Tuples classified as per-packet load balancing (excluded).
    pub load_balanced: usize,
    /// Violations of destination-based routing (not load balancing).
    pub violations: usize,
    /// Violations that change the AS-level path.
    pub as_violations: usize,
}

impl DbrReport {
    /// Fraction of tuples violating destination-based routing.
    pub fn violation_rate(&self) -> f64 {
        fraction(self.violations, self.tuples)
    }

    /// Fraction of tuples whose violation affects the AS path.
    pub fn as_violation_rate(&self) -> f64 {
        fraction(self.as_violations, self.tuples)
    }

    /// Render the Appx. E summary.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Appendix E: destination-based routing violations",
            &["Metric", "Count", "Fraction"],
        );
        t.row(&[
            "(R, R', S) tuples tested".to_string(),
            self.tuples.to_string(),
            "-".into(),
        ]);
        t.row(&[
            "excluded as load balancing".to_string(),
            self.load_balanced.to_string(),
            format!("{:.3}", fraction(self.load_balanced, self.tuples)),
        ]);
        t.row(&[
            "violations (router level)".to_string(),
            self.violations.to_string(),
            format!("{:.3}", self.violation_rate()),
        ]);
        t.row(&[
            "violations affecting AS path".to_string(),
            self.as_violations.to_string(),
            format!("{:.3}", self.as_violation_rate()),
        ]);
        t
    }
}

/// First spoofed RR reply's reverse hops for `target` as `claimed`, trying
/// the plan VPs (no batching subtleties needed here).
fn reverse_hops_once(
    prober: &Prober<'_>,
    ingress: &IngressDb,
    target: Addr,
    claimed: Addr,
) -> Vec<Addr> {
    let sim = prober.sim();
    let plan_prefix = sim.topo().prefix_of(target).or_else(|| {
        sim.topo()
            .block_owner(target)
            .and_then(|a| sim.topo().asn(a).prefixes.first().copied())
    });
    let mut plan: Vec<Addr> = plan_prefix
        .map(|p| {
            ingress
                .ingress_plan(p)
                .into_iter()
                .flat_map(|q| q.vps)
                .collect()
        })
        .unwrap_or_default();
    plan.extend(ingress.global_plan().iter().copied().take(6));
    plan.truncate(9);
    for chunk in plan.chunks(3) {
        let pairs: Vec<(Addr, Addr)> = chunk.iter().map(|&vp| (vp, target)).collect();
        for reply in prober
            .spoofed_rr_batch(&pairs, claimed)
            .replies
            .into_iter()
            .flatten()
        {
            if let Some(rev) = extract_reverse_hops(&reply.slots, target) {
                if !rev.is_empty() {
                    return rev.to_vec();
                }
            }
        }
    }
    Vec::new()
}

/// Run the Appx. E study over up to `max_tuples` tuples.
pub fn run(ctx: &EvalContext, ingress: &Arc<IngressDb>, max_tuples: usize) -> DbrReport {
    // Cache must be off: the load-balancer test needs genuinely repeated
    // probes.
    let prober = ctx.prober().with_cache_enabled(false);
    let resolver = AliasResolver::new(&ctx.sim);
    let ip2as = Ip2As::new(&ctx.sim);
    let mut report = DbrReport::default();

    'outer: for &(dst, src) in &ctx.workload() {
        let rev = reverse_hops_once(&prober, ingress, dst, src);
        // Consecutive reverse-hop pairs, skipping private addresses.
        let rev: Vec<Addr> = rev.into_iter().filter(|a| !a.is_private()).collect();
        for w in rev.windows(2) {
            let (r, r_next) = (w[0], w[1]);
            if report.tuples >= max_tuples {
                break 'outer;
            }
            let probe1 = reverse_hops_once(&prober, ingress, r, src);
            if probe1.is_empty() {
                continue; // R unresponsive to direct probing: out of scope
            }
            report.tuples += 1;
            let through = probe1.iter().any(|&h| resolver.hop_match(h, r_next));
            if through {
                continue; // destination-based routing holds
            }
            // Load-balancer check: three more probes; multiple distinct
            // first hops → per-packet balancing, not a violation.
            let mut first_hops: Vec<Option<Addr>> = vec![probe1.first().copied()];
            for _ in 0..3 {
                let p = reverse_hops_once(&prober, ingress, r, src);
                first_hops.push(p.first().copied());
            }
            let mut uniq: Vec<Option<Addr>> = first_hops.clone();
            uniq.sort_unstable();
            uniq.dedup();
            if uniq.len() > 1 {
                report.load_balanced += 1;
                continue;
            }
            report.violations += 1;
            // AS-level impact: the observed next hop sits in a different AS
            // than the expected one.
            let expected_as = ip2as.map(r_next);
            let got_as = probe1.first().and_then(|&h| ip2as.map(h));
            if expected_as.is_some() && got_as.is_some() && expected_as != got_as {
                report.as_violations += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_vpselect::Heuristics;

    #[test]
    fn violations_are_rare_but_present() {
        // Raise the injected violation rate so the smoke-scale sample
        // contains some.
        let mut cfg = revtr_netsim::SimConfig::tiny();
        cfg.behavior.dbr_violation = 0.15;
        let ctx = EvalContext::new(cfg, crate::context::EvalScale::smoke());
        let prober = ctx.prober();
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let report = run(&ctx, &ingress, 150);
        assert!(report.tuples > 0, "no tuples tested");
        // The violation rate is bounded and far below 1.
        let rate = report.violation_rate();
        assert!((0.0..0.8).contains(&rate), "violation rate {rate}");
        // AS-affecting violations are a subset.
        assert!(report.as_violations <= report.violations);
        assert_eq!(report.table().len(), 4);
    }

    #[test]
    fn zero_violation_config_shows_near_zero_rate() {
        let mut cfg = revtr_netsim::SimConfig::tiny();
        cfg.behavior.dbr_violation = 0.0;
        cfg.behavior.router_load_balancer = 0.0;
        let ctx = EvalContext::new(cfg, crate::context::EvalScale::smoke());
        let prober = ctx.prober();
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let report = run(&ctx, &ingress, 100);
        assert!(report.tuples > 0);
        // Not exactly zero: the Appx. E methodology itself has a small
        // false-positive channel (a probe of R may surface a different
        // RR measurement window than the probe of the destination that
        // revealed R -> R', so R' can be legitimately absent), so assert
        // the *rate* is near zero rather than the count being zero.
        assert!(
            report.violation_rate() <= 0.05,
            "no violations injected, rate must be near zero: {}",
            report.violation_rate()
        );
    }
}
