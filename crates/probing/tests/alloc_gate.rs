//! Allocation gates for the measurement cache and the backward stop set.
//! A fresh cache filled with a round's worth of entries — 60 000 RR
//! outcomes and 8 000 last links, the shape of one `ondemand-serial` round
//! — holds at most 140 B live an entry, index, logs and segment slack
//! included; and overwriting a stored key, or looking one up, allocates
//! nothing. A stop set filled with a round's backward observations holds
//! at most 140 B live a key, and a note for a slot it already holds
//! allocates nothing.
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread, so the harness's other threads cannot leak in.

use revtr_alloccount::{allocs_in, live_after};
use revtr_netsim::{Addr, RrReply, Sim, SimConfig};
use revtr_probing::{
    CachedRr, Contribution, LastLink, MeasurementCache, Note, RrKey, RrProvenance, SentEpoch,
    StopSet, StoredRr,
};

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

/// Backward keys one `ondemand-serial` round leaves in its stop set.
const STOPSET_KEYS: u32 = 15_680;
/// Notes between merges: a serial request publishes a handful.
const MERGE_EVERY: u32 = 6;

/// A dozen sources at distinct routers; about 28 % of the keys hold a
/// direct observation, the rest a spoofed one, and one in 3 000 both.
fn backward_notes(i: u32) -> impl Iterator<Item = Note> {
    let (src, cur) = (Addr(0x0a01_0000 + i % 13), Addr(0x0b00_0000 + i));
    let slots: &[bool] = if i.is_multiple_of(3_000) {
        &[false, true]
    } else if i % 25 < 7 {
        &[false]
    } else {
        &[true]
    };
    slots.iter().map(move |&spoofed| Note::Backward {
        src,
        cur,
        spoofed,
        stored: StoredRr {
            hops: (0..1 + i % 9).map(|k| Addr(0x0c00_0000 + i + k)).collect(),
            provenance: RrProvenance {
                sender: if spoofed {
                    Addr(0x0a00_0000 + i % 97)
                } else {
                    src
                },
                claimed: src,
                dst: cur,
                nonce: u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) + u64::from(spoofed),
                fwd_epoch: SentEpoch::from(i.is_multiple_of(2).then_some(i % 7)),
                rep_epoch: SentEpoch::default(),
                from_cache: false,
            },
        },
    })
}

/// Publish every key's notes, merging every few notes as a serial
/// request does.
fn publish(stop: &StopSet, keys: u32) {
    let notes = (0..keys).flat_map(backward_notes);
    for (seq, note) in (0u32..).zip(notes) {
        stop.contribute(Contribution {
            vtime: f64::from(seq / MERGE_EVERY),
            req: u64::from(seq / MERGE_EVERY),
            seq: u64::from(seq % MERGE_EVERY),
            note,
        });
        if seq % MERGE_EVERY == MERGE_EVERY - 1 {
            stop.merge_pending();
        }
    }
    stop.merge_pending();
}

#[test]
fn a_filled_stop_set_holds_at_most_140_bytes_a_backward_key() {
    let (stop, live) = live_after(|| {
        let stop = StopSet::new();
        publish(&stop, STOPSET_KEYS);
        stop
    });
    assert!(stop
        .consult()
        .backward(Addr(0x0a01_0000), Addr(0x0b00_0000))
        .is_some());
    let per_key = live as f64 / f64::from(STOPSET_KEYS);
    eprintln!("{live} B live, {per_key:.1} B a backward key (bound 140)");
    // A hash map holding both slots of every key in its buckets (the stop
    // set before it kept a log) held 319.8 B a key here.
    assert!(
        per_key <= 140.0,
        "the stop set holds {per_key:.1} B a backward key (gate 140)"
    );
}

#[test]
fn republishing_a_held_slot_allocates_nothing() {
    let stop = StopSet::new();
    publish(&stop, 5_000);
    let first = |i: u32| match backward_notes(i).next() {
        Some(Note::Backward {
            src, cur, stored, ..
        }) => (src, cur, stored),
        _ => unreachable!("backward notes only"),
    };
    let before = stop.approx_bytes();
    let ((), n) = allocs_in(|| {
        publish(&stop, 5_000);
        let consult = stop.consult();
        for i in 0..5_000 {
            let (src, cur, stored) = first(i);
            assert_eq!(consult.backward(src, cur).map(|(s, _)| s), Some(stored));
        }
    });
    assert_eq!(n, 0, "{n} allocations re-publishing held slots");
    assert_eq!(
        stop.approx_bytes(),
        before,
        "a held slot's note adds nothing"
    );
}
