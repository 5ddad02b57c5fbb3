//! Allocation gate for the survey plane: the ingress survey allocates what
//! it returns. On a simulator whose route caches are warm,
//!
//! * `IngressDb::build` over 40 prefixes allocates its outputs — per
//!   surveyed prefix the destination list, the in-range set, the candidate
//!   set, the fallback ranking, the ingress list and one VP queue per
//!   ingress, each cut to size in one allocation — plus a constant for the
//!   scratch, the tables and the global order, however many VPs answered or
//!   set-cover picks it took, and its sink trees: one block per surveyed
//!   destination position and per VP, made once, never per prefix — and,
//!   on a host with more than one core, a fixed cost per pool helper;
//! * the standalone `probe_prefix` pays that scratch per call and nothing
//!   else — it lends no tree;
//! * `parse_rr` and `path_view` allocate nothing.
//!
//! Its own test binary because it installs a counting global allocator;
//! everything runs inside one `#[test]` because the count is process-wide.

use revtr_alloccount::process_allocs_in;
use revtr_netsim::{Addr, Prefix, PrefixId, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::ingress::{probe_prefix, PrefixInfo};
use revtr_vpselect::parse::parse_rr;
use revtr_vpselect::{path_view, Heuristics, IngressDb};

#[global_allocator]
static GLOBAL: revtr_alloccount::Counting = revtr_alloccount::Counting;

/// The heap blocks a surveyed prefix is returned in.
fn output_blocks(info: &PrefixInfo) -> u64 {
    let lists = [
        info.dests.is_empty(),
        // The in-range set exists once a destination answered the scan.
        info.dests.is_empty(),
        info.candidates().is_empty(),
        info.fallback.is_empty(),
        info.ingresses.is_empty(),
    ];
    (lists.iter().filter(|&&empty| !empty).count() + info.ingresses.len()) as u64
}

/// Scratch, tables and global order of one `IngressDb::build`.
const BUILD_CONSTANT: u64 = 12;
/// Sink trees of one `IngressDb::build`: the cells of two forward trees
/// and of a reply tree per VP, and the list the reply trees sit in.
fn tree_blocks(n_vps: usize) -> u64 {
    (2 + n_vps + 1) as u64
}
/// What each helper of the build's pool adds, once: its thread's start and
/// the thread-locals its first probes set up (two more under the test
/// harness's output capture, which a spawned thread inherits), its forward
/// sink trees and the list they sit in, and its lane — two rows of two
/// vectors each, and the lanes' list. (Read on the 2-core reference host at
/// widths 2, 3 and 4: 16, 14 and 13 a helper captured; 14, 11 and 13 with
/// `--nocapture`.)
const PER_HELPER: u64 = 16;
/// Scratch of one standalone `probe_prefix`: four blocks, and the run
/// doubling at most twice (a VP can bring nine candidates; the run is sized
/// for four).
const SCRATCH: u64 = 6;

#[test]
fn the_survey_allocates_what_it_returns() {
    let sim = Sim::build(SimConfig::tiny(), 17);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(41).collect();
    let prober = Prober::new(&sim);
    // Warm-up: every route the survey walks is filled, and one prefix has
    // been through the whole path.
    IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);

    let (db, build) =
        process_allocs_in(|| IngressDb::build(&prober, &vps, &prefixes[1..], Heuristics::FULL));
    let outputs: u64 = db.prefixes().map(|(_, info)| output_blocks(info)).sum();
    assert_eq!(db.prefixes().count(), 40);
    let contested = db
        .prefixes()
        .filter(|(_, info)| info.ingresses.len() > 1)
        .count();
    assert!(
        contested >= 4,
        "only {contested} set covers took a second pick: the gate is vacuous"
    );
    // The build runs on a pool as wide as the host's cores.
    let helpers = revtr_netsim::pool::cores() as u64 - 1;
    let bound = outputs + BUILD_CONSTANT + tree_blocks(vps.len()) + PER_HELPER * helpers;
    eprintln!(
        "IngressDb::build: {build} allocations for {outputs} output blocks, \
         {helpers} pool helper(s) (bound {bound})"
    );
    assert!(
        build <= bound,
        "IngressDb::build allocated {build} times for {outputs} output blocks"
    );

    let survey = prober.with_cache_enabled(false);
    let mut worst = 0;
    for &p in &prefixes[1..] {
        let (info, n) = process_allocs_in(|| probe_prefix(&survey, &vps, p, Heuristics::FULL));
        worst = worst.max(n.saturating_sub(output_blocks(&info)));
        assert!(
            n <= output_blocks(&info) + SCRATCH,
            "probe_prefix({p}) allocated {n} times for {} output blocks",
            output_blocks(&info)
        );
    }

    eprintln!("probe_prefix: at most {worst} allocations past its output blocks (bound {SCRATCH})");

    // Parsing: in-prefix cut, double stamp, loop, private and repeated
    // addresses, a full nine slots.
    let prefix = Prefix::new(Addr(0x0B10_8000), 24);
    let a = |n: u32| Addr(0x0B00_0000 + n);
    let replies: [&[Addr]; 5] = [
        &[a(1), a(2), Addr(0x0B10_8001), a(9), a(10)],
        &[a(1), a(2), a(3), a(3), a(9)],
        &[a(1), a(2), a(3), a(4), a(2), a(9)],
        &[
            a(1),
            Addr::new(10, 0, 0, 9),
            a(1),
            a(5),
            a(6),
            a(7),
            a(5),
            a(8),
            a(9),
        ],
        &[],
    ];
    let ((), parsing) = process_allocs_in(|| {
        for slots in replies {
            std::hint::black_box(parse_rr(slots, prefix));
            for h in [
                Heuristics::INGRESS_ONLY,
                Heuristics::WITH_DOUBLE,
                Heuristics::FULL,
            ] {
                std::hint::black_box(path_view(slots, prefix, h));
            }
        }
    });
    assert_eq!(parsing, 0, "parsing allocated");
}
