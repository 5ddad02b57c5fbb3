//! The paper reproduction, pinned.
//!
//! - Every experiment is a pure function of `(Scale, seed)`: run alone, it
//!   renders exactly its artefacts of the full reproduction (tier-1 at
//!   smoke scale; the standard-scale arm, where churn has the virtual time
//!   to couple experiments that shared a world, is `#[ignore]`d).
//! - The standard seed-1 reproduction is byte-for-byte the committed
//!   golden `goldens/reproduce_standard1.txt`, and the paper's shapes hold
//!   at seeds {1, 7, 42} — orderings, factors and crossovers, not levels,
//!   Table 5's heuristic ladder among them.
//!   Both are `#[ignore]`d: ci.sh runs them in release.
//!
//! Regenerating the golden is a deliberate act, taken with the list of
//! rows that moved and why:
//! `revtr-cli reproduce --scale standard > crates/eval/tests/goldens/reproduce_standard1.txt`.

use revtr_eval::reproduce::{self, Reproduction};
use revtr_eval::{
    ablation, accuracy, as_graph, asymmetry, atlas_study, dbr_violations, ip2as_ablation,
    responsiveness, robustness, symmetry_assumption, throughput, traffic_eng, vp_selection, Scale,
};

/// The one revtr 2.0 run's complete count, as four artefacts read it.
fn revtr2_complete_counts(rep: &Reproduction) -> [usize; 4] {
    let fig5b = rep.accuracy.coverage.iter().find(|c| c.0 == "revtr 2.0");
    let table4 = rep.ablation.rows.iter().find(|r| r.name == "revtr 2.0");
    let cell = rep.robustness.cell(0.0, 1).expect("the clean cell");
    [
        fig5b.expect("Fig. 5b revtr 2.0 row").1,
        table4.expect("Table 4 revtr 2.0 row").completed,
        rep.throughput.complete,
        cell.score.complete,
    ]
}

/// Run every experiment alone at `(scale, 1)` and compare each artefact
/// with the full reproduction's.
fn each_experiment_alone_renders_its_artefacts_at(scale: Scale) {
    let seed = 1;
    let full = reproduce::run(scale, seed);
    let alone = Reproduction {
        table2: symmetry_assumption::run(scale, seed),
        table3: as_graph::run(scale, seed),
        ablation: ablation::run(scale, seed),
        accuracy: accuracy::run(scale, seed),
        vp_selection: vp_selection::run(scale, seed),
        responsiveness: responsiveness::run(scale, seed),
        asymmetry: asymmetry::run(scale, seed),
        atlas_sel: atlas_study::run_selection(scale, seed),
        staleness: atlas_study::run_staleness(scale, seed),
        dbr: dbr_violations::run(scale, seed),
        ip2as: ip2as_ablation::run(scale, seed),
        spoofing: responsiveness::spoofing_benefit(scale, seed),
        throughput: throughput::run(scale, seed),
        traffic_eng: traffic_eng::run(scale, seed),
        robustness: robustness::run(scale, seed),
    };
    let (full_arts, alone_arts) = (full.artefacts(), alone.artefacts());
    assert_eq!(full_arts.len(), alone_arts.len());
    for (a, b) in full_arts.iter().zip(&alone_arts) {
        assert_eq!(
            b, a,
            "{}: run alone, it differs from the full reproduction",
            a.0
        );
    }
    let counts = revtr2_complete_counts(&full);
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}

#[test]
fn each_experiment_alone_renders_its_artefacts_of_the_full_reproduction() {
    each_experiment_alone_renders_its_artefacts_at(Scale::Smoke);
}

#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn each_experiment_alone_renders_its_artefacts_of_the_full_standard_reproduction() {
    each_experiment_alone_renders_its_artefacts_at(Scale::Standard);
}

/// The paper's shapes, each failure naming its artefact.
fn assert_shapes(rep: &Reproduction, seed: u64) {
    let row = |name: &str| {
        (rep.ablation.rows.iter().find(|r| r.name == name))
            .unwrap_or_else(|| panic!("Table 4 has no {name:?} row"))
    };
    let (v1, v2) = (row("revtr 1.0"), row("revtr 2.0"));
    let cut = v1.total() as f64 / row("revtr 1.0 + ingress").total() as f64;
    assert!(
        cut >= 5.0,
        "Table 4 (seed {seed}): the ingress step cuts probes only {cut:.1}x"
    );

    let coverage = |label: &str| {
        let c = (rep.accuracy.coverage.iter().find(|c| c.0 == label))
            .unwrap_or_else(|| panic!("Fig. 5b has no {label:?} row"));
        c.1 as f64 / c.2 as f64
    };
    let (cov1, cov2) = (coverage("revtr 1.0"), coverage("revtr 2.0"));
    assert!(
        (0.65..=0.85).contains(&cov2) && cov2 < cov1,
        "Fig. 5b (seed {seed}): revtr 2.0 coverage {cov2:.3} (revtr 1.0: {cov1:.3})"
    );

    let gap = rep.table2.intra.yes_over_decided() - rep.table2.inter.yes_over_decided();
    assert!(
        gap >= 0.25,
        "Table 2 (seed {seed}): intra - inter is {gap:.2}"
    );

    let fig14 = rep.asymmetry.fig14();
    for label in ["5 hops", "6 hops"] {
        let ys: Vec<f64> = (fig14.series.iter().find(|s| s.label == label))
            .unwrap_or_else(|| panic!("Fig. 14 (seed {seed}) has no {label:?} curve"))
            .points
            .iter()
            .map(|p| p.1)
            .collect();
        let (ends, interior) = ([ys[0], ys[ys.len() - 1]], &ys[1..ys.len() - 1]);
        assert!(
            interior.iter().all(|&y| ends.iter().all(|&e| e > y)),
            "Fig. 14 (seed {seed}): the {label} curve is not U-shaped: {ys:?}"
        );
    }

    let (m1, m2) = (v1.median_duration_s(), v2.median_duration_s());
    assert!(
        m2 < m1,
        "Fig. 5c (seed {seed}): revtr 2.0 median {m2:.1} s, revtr 1.0 {m1:.1} s"
    );

    // Fig. 5c's knee: a spoofed batch costs the 10 s collection timeout of
    // §5.2.4, so durations skip (2 s, 10 s] and pile up just past 10 s.
    for r in &rep.ablation.rows {
        let share = |lo: f64, hi: f64| {
            let n = r.durations.iter().filter(|&&d| d > lo && d <= hi).count();
            n as f64 / r.durations.len() as f64
        };
        let (gap, knee) = (share(2.0, 10.0), share(10.0, 20.0));
        assert!(
            gap <= 0.01 && knee >= 0.05,
            "Fig. 5c (seed {seed}): {}: {gap:.3} of durations in (2, 10] s, {knee:.3} in (10, 20] s",
            r.name
        );
    }

    let cell = |budget| rep.robustness.cell(0.3, budget).expect("a loss-0.3 cell");
    let (once, thrice) = (cell(1).coverage(), cell(3).coverage());
    assert!(
        thrice > once,
        "robustness (seed {seed}): at loss 0.3, budget 3 covers {thrice:.3} vs budget 1 {once:.3}"
    );

    let counts = revtr2_complete_counts(rep);
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "one revtr 2.0 run (seed {seed}) reads as {counts:?} complete"
    );

    let table5 = |label: &str| {
        (rep.vp_selection.table5_rows.iter().find(|r| r.0 == label))
            .unwrap_or_else(|| panic!("Table 5 has no {label:?} row"))
            .1
    };
    let ladder = [
        "Ingress",
        "Ingress + double stamp",
        "Ingress + double stamp + loop (revtr 2.0)",
    ]
    .map(table5);
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "Table 5 (seed {seed}): a heuristic lowers the in-range fraction: {ladder:?}"
    );
    let (v1, optimal) = (table5("revtr 1.0"), table5("Optimal"));
    assert!(
        v1 == optimal,
        "Table 5 (seed {seed}): revtr 1.0 reads {v1:.3}, Optimal {optimal:.3}"
    );
}

#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn standard_seed1_reproduction_matches_its_golden() {
    let rep = reproduce::run(Scale::Standard, 1);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/reproduce_standard1.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let text = rep.render();
    let drift = (text.lines().zip(golden.lines()).enumerate()).find(|(_, (a, b))| a != b);
    if let Some((i, (got, want))) = drift {
        panic!(
            "the standard reproduction drifted from {} at line {}:\n  got:  {got}\n  want: {want}",
            path.display(),
            i + 1
        );
    }
    assert_eq!(text, golden, "{} drifted in length", path.display());
    assert_shapes(&rep, 1);
}

#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn paper_shapes_hold_at_standard_seeds_7_and_42() {
    for seed in [7, 42] {
        assert_shapes(&reproduce::run(Scale::Standard, seed), seed);
    }
}
