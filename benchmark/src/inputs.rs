//! Workload inputs: pure functions of `(--seed, round)` over the fixed
//! topology. The program under test receives only what these return.
//!
//! The generators carry their own PRNG rather than the workspace's `rand`
//! shim, so a later change to that shim cannot silently change what the
//! benchmark asks the program to do.

use revtr_loadgen::Arrival;
use revtr_netsim::{Addr, PrefixId};
use revtr_service::TimedRequest;

use crate::config::{
    BOOTSTRAP_SOURCES, CAMPAIGN_SOURCES, HOSTS_PER_PREFIX, ONDEMAND_SWEEPS, SURVEY_SAMPLE,
};

/// SplitMix64 (Steele, Lea & Flood): tiny, well mixed, fully specified.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one `(seed, round, purpose)` triple.
    pub fn new(seed: u64, round: usize, purpose: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
        g.0 = g.next_u64() ^ (round as u64).wrapping_mul(0xe703_7ed1_a0b4_28db);
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is < 2^-40).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One prefix of the destination table with its RR-responsive hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DestRow {
    pub prefix: PrefixId,
    pub hosts: [Addr; HOSTS_PER_PREFIX],
}

/// `bootstrap-cold`, one round: the prefixes to survey and the sources to
/// register.
pub fn bootstrap_round(
    prefixes: &[PrefixId],
    sources: &[Addr],
    seed: u64,
    round: usize,
) -> (Vec<PrefixId>, Vec<Addr>) {
    let mut g = SplitMix64::new(seed, round, 1);
    let mut sample = prefixes.to_vec();
    g.shuffle(&mut sample);
    sample.truncate(SURVEY_SAMPLE);
    let mut srcs = sources.to_vec();
    g.shuffle(&mut srcs);
    srcs.truncate(BOOTSTRAP_SOURCES);
    (sample, srcs)
}

/// `ondemand-serial`, one round: [`ONDEMAND_SWEEPS`] sweeps over every
/// prefix in a fresh order; within the round a prefix never repeats a host
/// and moves to another source on every sweep, so the measurement cache
/// stays cold and sharing stays low.
pub fn ondemand_round(
    table: &[DestRow],
    sources: &[Addr],
    seed: u64,
    round: usize,
) -> Vec<(Addr, Addr)> {
    let mut g = SplitMix64::new(seed, round, 2);
    let offsets: Vec<(usize, usize)> = table
        .iter()
        .map(|_| (g.below(HOSTS_PER_PREFIX), g.below(sources.len())))
        .collect();
    let mut order: Vec<usize> = (0..table.len()).collect();
    let mut out = Vec::with_capacity(table.len() * ONDEMAND_SWEEPS);
    for sweep in 0..ONDEMAND_SWEEPS {
        g.shuffle(&mut order);
        for &i in &order {
            let (h, s) = offsets[i];
            out.push((
                table[i].hosts[(h + sweep) % HOSTS_PER_PREFIX],
                sources[(s + sweep) % sources.len()],
            ));
        }
    }
    out
}

/// `campaign-batch`, one round: every host of the table once, the hosts of
/// one prefix adjacent and alternating between the round's two sources —
/// the high-sharing shape stop sets exist for.
pub fn campaign_round(
    table: &[DestRow],
    sources: &[Addr],
    seed: u64,
    round: usize,
) -> (Vec<Addr>, Vec<(Addr, Addr)>) {
    let mut g = SplitMix64::new(seed, round, 3);
    let mut srcs = sources.to_vec();
    g.shuffle(&mut srcs);
    srcs.truncate(CAMPAIGN_SOURCES);
    let mut order: Vec<usize> = (0..table.len()).collect();
    g.shuffle(&mut order);
    let mut pairs = Vec::with_capacity(table.len() * HOSTS_PER_PREFIX);
    for &i in &order {
        let first = g.below(srcs.len());
        for (j, &host) in table[i].hosts.iter().enumerate() {
            pairs.push((host, srcs[(first + j) % srcs.len()]));
        }
    }
    (srcs, pairs)
}

/// `service-openloop`, one round: the run's arrival stream mapped onto the
/// topology. Every round replays the same stream — so every round has the
/// same op count and the same admission decisions — against a fresh
/// popularity ranking of the destinations and a fresh user → source
/// assignment, which is where the measurement work comes from.
pub fn openloop_round(
    arrivals: &[Arrival],
    table: &[DestRow],
    sources: &[Addr],
    seed: u64,
    round: usize,
) -> Vec<TimedRequest> {
    let mut g = SplitMix64::new(seed, round, 4);
    let mut ranked: Vec<Addr> = table.iter().map(|row| row.hosts[0]).collect();
    g.shuffle(&mut ranked);
    let shift = g.below(sources.len());
    arrivals
        .iter()
        .map(|a| TimedRequest {
            vtime_ms: a.vtime_ms,
            tenant: a.tenant,
            class: a.class.index(),
            dst: ranked[a.dst_rank % ranked.len()],
            src: sources[(a.user as usize + shift) % sources.len()],
        })
        .collect()
}

/// FNV-1a over a round's `(dst, src)` sequence.
#[cfg(test)]
pub fn fingerprint(pairs: impl IntoIterator<Item = (Addr, Addr)>) -> u64 {
    let mut h = revtr_telemetry::Fnv::new();
    for (dst, src) in pairs {
        h.write_u64(u64::from(dst.0) << 32 | u64::from(src.0));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u32) -> Vec<DestRow> {
        (0..n)
            .map(|p| DestRow {
                prefix: PrefixId(p),
                hosts: std::array::from_fn(|h| Addr(0x0b00_0000 + p * 256 + h as u32 + 10)),
            })
            .collect()
    }

    fn sources() -> Vec<Addr> {
        (0..8).map(|s| Addr(0x0a00_0001 + s * 256)).collect()
    }

    #[test]
    fn every_generator_is_a_pure_function_of_seed_and_round() {
        let (t, s) = (table(500), sources());
        let prefixes: Vec<PrefixId> = t.iter().map(|r| r.prefix).collect();
        for round in [0, 3] {
            assert_eq!(
                bootstrap_round(&prefixes, &s, 7, round),
                bootstrap_round(&prefixes, &s, 7, round)
            );
            let fp = |seed, round| fingerprint(ondemand_round(&t, &s, seed, round));
            assert_eq!(fp(7, round), fp(7, round));
            assert_ne!(fp(7, round), fp(8, round), "another seed, other inputs");
            assert_ne!(
                fp(7, round),
                fp(7, round + 1),
                "another round, other inputs"
            );
            let cp = |seed, round| fingerprint(campaign_round(&t, &s, seed, round).1);
            assert_eq!(cp(7, round), cp(7, round));
            assert_ne!(cp(7, round), cp(8, round));
        }
        assert_ne!(
            bootstrap_round(&prefixes, &s, 7, 0).0,
            bootstrap_round(&prefixes, &s, 8, 0).0
        );
    }

    #[test]
    fn every_round_has_the_same_op_count() {
        let (t, s) = (table(500), sources());
        let prefixes: Vec<PrefixId> = t.iter().map(|r| r.prefix).collect();
        for round in 0..5 {
            let (sample, srcs) = bootstrap_round(&prefixes, &s, 1, round);
            assert_eq!(
                (sample.len(), srcs.len()),
                (SURVEY_SAMPLE, BOOTSTRAP_SOURCES)
            );
            assert_eq!(
                ondemand_round(&t, &s, 1, round).len(),
                500 * ONDEMAND_SWEEPS
            );
            assert_eq!(
                campaign_round(&t, &s, 1, round).1.len(),
                500 * HOSTS_PER_PREFIX
            );
        }
    }

    #[test]
    fn an_ondemand_round_never_repeats_a_destination() {
        let (t, s) = (table(300), sources());
        let reqs = ondemand_round(&t, &s, 5, 2);
        let mut dsts: Vec<Addr> = reqs.iter().map(|&(d, _)| d).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), reqs.len());
    }

    #[test]
    fn a_campaign_round_keeps_a_prefix_adjacent_on_two_sources() {
        let (t, s) = (table(100), sources());
        let (srcs, pairs) = campaign_round(&t, &s, 9, 1);
        assert_eq!(srcs.len(), CAMPAIGN_SOURCES);
        for block in pairs.chunks(HOSTS_PER_PREFIX) {
            let prefix = block[0].0 .0 >> 8;
            assert!(block.iter().all(|&(d, _)| d.0 >> 8 == prefix));
            assert!(block.iter().all(|(_, src)| srcs.contains(src)));
            assert_ne!(block[0].1, block[1].1, "sources alternate");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..1000).collect();
        SplitMix64::new(3, 0, 9).shuffle(&mut v);
        assert_ne!(v, (0..1000).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }
}
