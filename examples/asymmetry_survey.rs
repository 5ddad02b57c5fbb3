//! The §6.2 asymmetry survey: bidirectional measurements (forward
//! traceroute + revtr 2.0 reverse traceroute), path symmetry at AS and
//! router granularity, and the ASes most involved in asymmetric routing.
//!
//! Run with: `cargo run --release --example asymmetry_survey`

use revtr_eval::context::DEFAULT_SEED;
use revtr_eval::{asymmetry, Figure, Scale};

fn main() {
    let scale = Scale::Standard;
    println!(
        "bidirectional pairs attempted: {} (the standard revtr 2.0 campaign)\n",
        scale.eval_scale(DEFAULT_SEED).n_revtrs
    );
    let report = asymmetry::run(scale, DEFAULT_SEED);
    println!(
        "pairs with complete forward + reverse paths: {}",
        report.pairs.len()
    );
    println!(
        "AS-symmetric fraction: {:.2}  (paper: 0.53 — 'only 53% of paths are \
         symmetric even at the coarse AS granularity')\n",
        report.as_symmetric_fraction()
    );

    let median_router = {
        let mut v: Vec<f64> = report.pairs.iter().map(|p| p.frac_router).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
    };
    println!(
        "median router-level overlap: {median_router:.2}  (paper: half of reverse \
         traceroutes include <28% of forward routers)\n"
    );

    let figs: Vec<Figure> = vec![report.fig8a(), report.fig13(), report.fig14()];
    for f in figs {
        println!("{}", f.render());
    }
    println!("{}", report.table7(10).render());
}
