//! Allocation gate for the measurement cache: a fresh cache filled with a
//! round's worth of entries — 60 000 RR outcomes and 8 000 last links, the
//! shape of one `ondemand-serial` round — holds at most 140 B live an
//! entry, index, logs and segment slack included; and overwriting a stored
//! key, or looking one up, allocates nothing.
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread, so the harness's other threads cannot leak in.

use revtr_alloccount::{allocs_in, live_after};
use revtr_netsim::{Addr, RrReply, Sim, SimConfig};
use revtr_probing::{CachedRr, LastLink, MeasurementCache, RrKey};

#[global_allocator]
static GLOBAL: revtr_alloccount::Counting = revtr_alloccount::Counting;

const RR_ENTRIES: u32 = 60_000;
const LINK_ENTRIES: u32 = 8_000;

/// A hundred-odd VPs probing distinct destinations, a third of them
/// spoofing one of a dozen sources.
fn rr_key(i: u32) -> RrKey {
    let sender = Addr(0x0a00_0000 + i % 97);
    RrKey {
        sender,
        claimed: if i.is_multiple_of(3) {
            Addr(0x0a01_0000 + i % 13)
        } else {
            sender
        },
        dst: Addr(0x0b00_0000 + i),
    }
}

/// One in five unanswered; the rest record 1–9 slots.
fn outcome(i: u32) -> CachedRr {
    CachedRr {
        reply: (!i.is_multiple_of(5)).then(|| RrReply {
            from: Addr(0x0b00_0000 + i),
            slots: (0..1 + i % 9).map(|k| Addr(0x0c00_0000 + i + k)).collect(),
            rtt_ms: f64::from(i % 300) + 0.5,
        }),
        nonce: u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        fwd_epoch: i.is_multiple_of(2).then_some(i % 7),
        rep_epoch: i.is_multiple_of(4).then_some(i % 5),
    }
}

fn link_key(i: u32) -> (Addr, Addr) {
    (Addr(0x0a01_0000 + i % 13), Addr(0x0b00_0000 + i * 7))
}

fn link(i: u32) -> Option<LastLink> {
    (!i.is_multiple_of(6)).then(|| LastLink {
        penult: (!i.is_multiple_of(4)).then_some(Addr(0x0c00_0000 + i)),
        dist: 2 + (i % 20) as u8,
        gap: (i % 2) as u8,
        reached: !i.is_multiple_of(3),
    })
}

fn fill(sim: &Sim, cache: &MeasurementCache, rr: u32, links: u32) {
    for i in 0..rr {
        cache.put_rr(sim, rr_key(i), outcome(i));
    }
    for i in 0..links {
        let (src, dst) = link_key(i);
        cache.put_last_link(sim, src, dst, link(i));
    }
}

#[test]
fn a_filled_cache_holds_at_most_140_bytes_an_entry() {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let (cache, live) = live_after(|| {
        let cache = MeasurementCache::new();
        fill(&sim, &cache, RR_ENTRIES, LINK_ENTRIES);
        cache
    });
    assert_eq!(cache.rr_len(), RR_ENTRIES as usize);
    assert_eq!(cache.last_link_len(), LINK_ENTRIES as usize);
    let per_entry = live as f64 / f64::from(RR_ENTRIES + LINK_ENTRIES);
    eprintln!("{live} B live, {per_entry:.1} B an entry (bound 140)");
    // Two 16-shard hash maps holding whole entries in their buckets (the
    // cache before it kept logs) held 225.8 B an entry here; the logs
    // hold 118.9.
    assert!(
        per_entry <= 140.0,
        "the cache holds {per_entry:.1} B an entry (gate 140)"
    );
}

#[test]
fn overwriting_or_reading_a_stored_key_allocates_nothing() {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let cache = MeasurementCache::new();
    fill(&sim, &cache, 5_000, 1_000);
    let ((), n) = allocs_in(|| {
        for i in 0..5_000 {
            cache.put_rr(&sim, rr_key(i), outcome(i + 1));
            assert_eq!(cache.get_rr(&sim, rr_key(i)), Some(outcome(i + 1)));
        }
        for i in 0..1_000 {
            let (src, dst) = link_key(i);
            cache.put_last_link(&sim, src, dst, link(i + 1));
            assert_eq!(cache.get_last_link(&sim, src, dst), Some(link(i + 1)));
        }
    });
    assert_eq!(n, 0, "{n} allocations overwriting and reading stored keys");
    assert_eq!(cache.rr_len(), 5_000, "an overwrite adds no entry");
    assert_eq!(cache.last_link_len(), 1_000);
}
