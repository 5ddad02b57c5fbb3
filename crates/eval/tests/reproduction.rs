//! The paper reproduction, pinned.
//!
//! - Every experiment is a pure function of `(Scale, seed)`: run alone, it
//!   renders exactly its artefacts of the full reproduction (tier-1 at
//!   smoke scale; the standard-scale arm, where churn has the virtual time
//!   to couple experiments that shared a world, is `#[ignore]`d).
//! - The standard seed-1 reproduction is byte-for-byte the committed
//!   golden `goldens/reproduce_standard1.txt`, and the paper's shapes hold
//!   at seeds 1–16 and 42 — orderings, factors, crossovers and the
//!   mechanisms behind them, not levels, Table 5's heuristic ladder among
//!   them.
//!   Both are `#[ignore]`d: ci.sh runs them in release.
//!
//! Regenerating the golden is a deliberate act, one command:
//! `revtr-cli reproduce --scale standard > crates/eval/tests/goldens/reproduce_standard1.txt`.
//! A drifted golden fails with the table of the rows that moved
//! (`golden/mod.rs`); that table, with why each row moved, goes with the
//! re-pin.

mod golden;

use revtr::EngineConfig;
use revtr_eval::reproduce::{self, Reproduction};
use revtr_eval::{
    ablation, accuracy, as_graph, asymmetry, atlas_study, dbr_violations, ip2as_ablation,
    responsiveness, robustness, symmetry_assumption, throughput, traffic_eng, vp_selection,
    Campaign, Scale,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// The paper's shapes a standard-scale reproduction breaks, each failure
/// naming its seed and its artefact; empty when every shape holds.
fn shape_failures(rep: &Reproduction, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |holds: bool, failure: String| {
        if !holds {
            failures.push(failure);
        }
    };
    let row = |name: &str| {
        (rep.ablation.rows.iter().find(|r| r.name == name))
            .unwrap_or_else(|| panic!("Table 4 has no {name:?} row"))
    };
    let (v1, v2) = (row("revtr 1.0"), row("revtr 2.0"));
    let cut = v1.total() as f64 / row("revtr 1.0 + ingress").total() as f64;
    check(
        cut >= 5.0,
        format!("Table 4 (seed {seed}): the ingress step cuts probes only {cut:.1}x"),
    );

    let coverage = |label: &str| {
        let c = (rep.accuracy.coverage.iter().find(|c| c.0 == label))
            .unwrap_or_else(|| panic!("Fig. 5b has no {label:?} row"));
        c.1 as f64 / c.2 as f64
    };
    let (cov1, cov2) = (coverage("revtr 1.0"), coverage("revtr 2.0"));
    check(
        (0.65..=0.85).contains(&cov2) && cov2 < cov1,
        format!("Fig. 5b (seed {seed}): revtr 2.0 coverage {cov2:.3} (revtr 1.0: {cov1:.3})"),
    );

    let gap = rep.table2.intra.yes_over_decided() - rep.table2.inter.yes_over_decided();
    check(
        gap >= 0.25,
        format!("Table 2 (seed {seed}): intra - inter is {gap:.2}"),
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
        check(
            interior.iter().all(|&y| ends.iter().all(|&e| e > y)),
            format!("Fig. 14 (seed {seed}): the {label} curve is not U-shaped: {ys:?}"),
        );
    }

    let (m1, m2) = (v1.median_duration_s(), v2.median_duration_s());
    check(
        m2 < m1,
        format!("Fig. 5c (seed {seed}): revtr 2.0 median {m2:.1} s, revtr 1.0 {m1:.1} s"),
    );

    // Fig. 5c's knee: a spoofed batch costs the 10 s collection timeout of
    // §5.2.4, so a request that sent one lasts past 10 s, and durations
    // pile up just past 10 s. What lands in (2 s, 10 s] sent no batch — a
    // 2 s probe timeout (an unanswered timestamp probe) on top of a ladder
    // that never formed or that the measurement cache answered for free.
    // The per-request batch counts come from re-running each row's
    // campaign, which must read the row's durations.
    for (name, engine) in EngineConfig::table4_ladder() {
        let run = (Campaign::clean(Scale::Standard, seed).with_engine(engine)).run();
        let durations: Vec<f64> = run.results.iter().map(|r| r.stats.duration_s).collect();
        check(
            durations == row(name).durations,
            format!("Fig. 5c (seed {seed}): {name}: the campaign re-run differs from the row"),
        );
        let quick = (run.results.iter())
            .filter(|r| r.stats.batches > 0 && r.stats.duration_s <= 10.0)
            .count();
        let knee = durations.iter().filter(|&&d| d > 10.0 && d <= 20.0).count();
        let knee = knee as f64 / durations.len() as f64;
        check(
            quick == 0 && knee >= 0.05,
            format!(
                "Fig. 5c (seed {seed}): {name}: {quick} requests sent a spoofed batch yet took \
                 <= 10 s, {knee:.3} of durations in (10, 20] s"
            ),
        );
    }

    let cell = |budget| rep.robustness.cell(0.3, budget).expect("a loss-0.3 cell");
    let (once, thrice) = (cell(1).coverage(), cell(3).coverage());
    check(
        thrice > once,
        format!(
            "robustness (seed {seed}): at loss 0.3, budget 3 covers {thrice:.3} vs budget 1 \
             {once:.3}"
        ),
    );

    let counts = revtr2_complete_counts(rep);
    check(
        counts.iter().all(|&c| c == counts[0]),
        format!("one revtr 2.0 run (seed {seed}) reads as {counts:?} complete"),
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
    check(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        format!("Table 5 (seed {seed}): a heuristic lowers the in-range fraction: {ladder:?}"),
    );
    let (v1, optimal) = (table5("revtr 1.0"), table5("Optimal"));
    check(
        v1 == optimal,
        format!("Table 5 (seed {seed}): revtr 1.0 reads {v1:.3}, Optimal {optimal:.3}"),
    );
    failures
}

/// Fail with every shape the reproduction of `seed` breaks.
fn assert_shapes(rep: &Reproduction, seed: u64) {
    let failures = shape_failures(rep, seed);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn standard_seed1_reproduction_matches_its_golden() {
    let rep = reproduce::run(Scale::Standard, 1);
    golden::assert_matches("reproduce_standard1.txt", &rep.render());
    assert_shapes(&rep, 1);
}

/// Seeds 2–16 and 42; seed 1's shapes are asserted beside its golden.
/// Each seed is a world of its own, so the seeds run on a few scoped
/// threads. Every seed runs to its end and the test fails once, listing
/// each seed's failures in seed order, so one broken shape hides no other.
#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn paper_shapes_hold_at_standard_seeds_2_to_16_and_42() {
    let seeds: Vec<u64> = (2..=16).chain([42]).collect();
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(&seed) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let broken = shape_failures(&reproduce::run(Scale::Standard, seed), seed);
                    failures
                        .lock()
                        .expect("no worker panics")
                        .push((seed, broken));
                }
            });
        }
    });
    let mut failures = failures.into_inner().expect("no worker panicked");
    failures.sort_unstable_by_key(|&(seed, _)| seed);
    let broken: Vec<String> = failures.into_iter().flat_map(|(_, f)| f).collect();
    assert!(
        broken.is_empty(),
        "{} shape failures:\n{}",
        broken.len(),
        broken.join("\n")
    );
}
