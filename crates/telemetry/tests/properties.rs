//! Property tests over the telemetry primitives: histogram merge algebra,
//! quantile monotonicity, shard-merge count conservation, and the
//! journal's read-time sort+cap edge cases.

use proptest::prelude::*;
use revtr_telemetry::{Fnv, Histogram, Journal, MetricsRegistry, RequestRecord};

fn fp(h: &Histogram) -> u64 {
    let mut f = Fnv::new();
    h.hash_into(&mut f);
    f.finish()
}

fn histogram_of(vs: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vs {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is commutative: a∪b == b∪a, down to the fingerprint.
    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(0u64..1_000_000, 0..80),
        b in proptest::collection::vec(0u64..1_000_000, 0..80),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(fp(&ab), fp(&ba));
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ab.quantile(0.5), ba.quantile(0.5));
    }

    /// merge is associative: (a∪b)∪c == a∪(b∪c).
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..u64::MAX, 0..60),
        b in proptest::collection::vec(0u64..u64::MAX, 0..60),
        c in proptest::collection::vec(0u64..u64::MAX, 0..60),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(fp(&left), fp(&right));
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn histogram_quantiles_are_monotone_in_q(
        vs in proptest::collection::vec(0u64..10_000_000, 1..200),
    ) {
        let h = histogram_of(&vs);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut last = h.min();
        for q in qs {
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantile({q}) = {v} < previous {last}");
            last = v;
        }
        prop_assert_eq!(h.quantile(0.0), h.min());
        prop_assert_eq!(h.quantile(1.0), h.max());
    }

    /// Splitting a stream across registry shards (worker threads) and
    /// merging the snapshot never loses counts: total count and sum match
    /// a single-histogram run exactly.
    #[test]
    fn record_never_loses_counts_across_shard_merges(
        vs in proptest::collection::vec(0u64..5_000_000, 1..200),
        workers in 1usize..8,
    ) {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for w in 0..workers {
                let chunk: Vec<u64> = vs
                    .iter()
                    .copied()
                    .skip(w)
                    .step_by(workers)
                    .collect();
                let reg = &reg;
                s.spawn(move || {
                    for v in chunk {
                        reg.record("lat", v);
                    }
                });
            }
        });
        let whole = histogram_of(&vs);
        let snap = reg.snapshot();
        let merged = snap.histogram("lat").expect("recorded");
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert_eq!(fp(merged), fp(&whole));
    }

    /// The journal's rendered output is a pure function of the record
    /// *set*: any insertion order gives the same lines, any cap keeps the
    /// sorted prefix.
    #[test]
    fn journal_sort_cap_is_insertion_order_independent(
        // Each raw key encodes (dst, src); duplicates are expected and
        // exercise the tie-break path.
        raw in proptest::collection::vec(0u32..400, 0..40),
        cap in 0usize..50,
    ) {
        let keys: Vec<(u32, u32)> = raw.iter().map(|&k| (k % 50, k / 50)).collect();
        let fwd = Journal::new(cap);
        let rev = Journal::new(cap);
        for &(dst, src) in &keys {
            fwd.push(&rec(dst, src));
        }
        for &(dst, src) in keys.iter().rev() {
            rev.push(&rec(dst, src));
        }
        prop_assert!(fwd.lines().len() <= cap);
        prop_assert_eq!(fwd.lines(), rev.lines());
        prop_assert_eq!(fwd.fingerprint(), rev.fingerprint());
        // The retained subset is exactly the sorted prefix: an uncapped
        // journal over the same records, truncated to cap.
        let uncapped = Journal::new(keys.len());
        for &(dst, src) in &keys {
            uncapped.push(&rec(dst, src));
        }
        let expected: Vec<String> = uncapped.lines().into_iter().take(cap).collect();
        prop_assert_eq!(fwd.lines(), expected);
    }
}

fn rec(dst: u32, src: u32) -> RequestRecord {
    let mut r = RequestRecord::new(dst, src, "Complete", 100 + u64::from(dst));
    r.push_span("rr_step", 0, 0, 100, &[("probes", u64::from(src))]);
    r
}

#[test]
fn journal_cap_zero_renders_nothing_but_stores_nothing_extra() {
    // cap 0: nothing is retained and the rendered journal is empty — a
    // valid "journalling off" setting.
    let j = Journal::new(0);
    for d in 0..10 {
        j.push(&rec(d, 1));
    }
    assert_eq!(j.len(), 0);
    assert!(j.is_empty());
    assert!(j.lines().is_empty());
    assert_eq!(j.fingerprint(), Fnv::new().finish());
}

#[test]
fn journal_cap_larger_than_population_keeps_everything() {
    let j = Journal::new(1000);
    for d in (0..25u32).rev() {
        j.push(&rec(d, 2));
    }
    let lines = j.lines();
    assert_eq!(lines.len(), 25);
    // Sorted ascending by (src, dst) even though pushed descending.
    for (i, line) in lines.iter().enumerate() {
        assert!(line.contains(&format!("\"dst\":{i},")), "line {i}: {line}");
    }
}

#[test]
fn journal_duplicate_keys_are_kept_and_tie_broken_by_json() {
    // Two distinct records under the same (dst, src) key — e.g. a request
    // retried after a fault — are both retained; the sort tie-breaks on
    // the rendered JSON so their order is deterministic.
    let a = Journal::new(10);
    let b = Journal::new(10);
    let mut slow = rec(4, 4);
    slow.virtual_us = 999_999;
    for j in [&a, &b] {
        if std::ptr::eq(j, &a) {
            j.push(&rec(4, 4));
            j.push(&slow);
        } else {
            j.push(&slow);
            j.push(&rec(4, 4));
        }
        j.push(&rec(4, 4)); // exact duplicate record
    }
    assert_eq!(a.lines(), b.lines());
    assert_eq!(a.lines().len(), 3);
    assert!(a.lines()[0] <= a.lines()[1] && a.lines()[1] <= a.lines()[2]);
    // With a cap of 1 the same single record survives from either order.
    let capped_a = Journal::new(1);
    capped_a.push(&slow);
    capped_a.push(&rec(4, 4));
    let capped_b = Journal::new(1);
    capped_b.push(&rec(4, 4));
    capped_b.push(&slow);
    assert_eq!(capped_a.lines(), capped_b.lines());
}

#[test]
fn journal_far_past_its_cap_is_still_insertion_order_independent() {
    // 10 × cap records, mostly ties on (dst, src): retention is the `cap`
    // smallest under the journal order, whoever pushes what, when.
    const CAP: usize = 64;
    let population: Vec<RequestRecord> = (0..10 * CAP as u32)
        .map(|i| {
            let mut r = rec(i % 7, i % 3);
            r.virtual_us = u64::from(i * 7919 % 1000);
            r
        })
        .collect();

    let ascending = Journal::new(CAP);
    for r in &population {
        ascending.push(r);
    }
    let descending = Journal::new(CAP);
    for r in population.iter().rev() {
        descending.push(r);
    }
    let threaded = Journal::new(CAP);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (threaded, population) = (&threaded, &population);
            s.spawn(move || {
                for r in population.iter().skip(t).step_by(4) {
                    threaded.push(r);
                }
            });
        }
    });

    // What sort-everything-then-truncate keeps.
    let mut expected: Vec<String> = {
        let mut all: Vec<&RequestRecord> = population.iter().collect();
        all.sort_by_key(|r| (r.src, r.dst, r.to_json()));
        all.iter().map(|r| r.to_json()).collect()
    };
    expected.truncate(CAP);

    for journal in [&ascending, &descending, &threaded] {
        assert_eq!(journal.len(), CAP);
        assert_eq!(journal.dropped(), 9 * CAP as u64);
        assert_eq!(journal.lines(), expected);
        assert_eq!(journal.fingerprint(), ascending.fingerprint());
    }
}
