//! The §6.1 traffic-engineering case study: announce an anycast prefix
//! from two sites, observe per-AS catchments (what revtr 2.0's reverse
//! paths reveal), and steer routes with poisoning / no-export actions.
//!
//! Run with: `cargo run --release --example traffic_engineering`

use revtr_eval::context::DEFAULT_SEED;
use revtr_eval::traffic_eng::{self, share};
use revtr_eval::Scale;

fn main() {
    let report = traffic_eng::run(Scale::Standard, DEFAULT_SEED);
    println!("{}", report.fig7().render());

    let sc = &report.steering;
    println!(
        "steering: poisoned {} on the far site's announcement;",
        sc.manipulated
    );
    println!(
        "  near-site share {:.1}% -> {:.1}%, mean AS-path {:.2} -> {:.2}",
        100.0 * share(&sc.before, sc.sites[0]),
        100.0 * share(&sc.after, sc.sites[0]),
        sc.before.mean_path_len,
        sc.after.mean_path_len,
    );

    let b = &report.balancing;
    println!(
        "\nbalancing: no-exported the dominant site via {};",
        b.manipulated
    );
    println!(
        "  split {:.1}% : {:.1}%  ->  {:.1}% : {:.1}%",
        100.0 * share(&b.before, b.sites[0]),
        100.0 * share(&b.before, b.sites[1]),
        100.0 * share(&b.after, b.sites[0]),
        100.0 * share(&b.after, b.sites[1]),
    );
    println!(
        "\n(The paper's instance: Cogent routes shifted 73.3% -> 86.5% toward \
         NEU, and the AMS-IX split improved from 91.2%:8.8% to 60.5%:39.5%.)"
    );
}
