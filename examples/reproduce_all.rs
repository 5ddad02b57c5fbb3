//! Regenerate every table and figure of the paper's evaluation.
//!
//! Run with: `cargo run --release --example reproduce_all [smoke|standard]`
//!
//! `standard` (the default) runs the full-scale reproduction — minutes of
//! work; `smoke` runs a fast scaled-down pass. Text output goes to stdout;
//! per-artefact TSVs are written to `target/eval/`.

use revtr_eval::context::DEFAULT_SEED;
use revtr_eval::{reproduce, Scale};
use std::path::Path;
use std::time::Instant;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "standard".into());
    let scale = match Scale::parse(&mode) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "running the {mode} reproduction: {:?}",
        scale.eval_scale(DEFAULT_SEED)
    );
    let t0 = Instant::now();
    let rep = reproduce::run(scale, DEFAULT_SEED);
    eprintln!("experiments done in {:?}", t0.elapsed());

    println!("{}", rep.render());

    let dir = Path::new("target/eval");
    match rep.save_tsvs(dir) {
        Ok(()) => eprintln!("TSVs written to {}", dir.display()),
        Err(e) => eprintln!("could not write TSVs: {e}"),
    }
}
