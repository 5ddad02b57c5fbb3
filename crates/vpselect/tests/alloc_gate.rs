//! Allocation gate for the survey plane: the ingress survey allocates what
//! it returns. On a simulator whose route caches are warm,
//!
//! * `IngressDb::build` over 40 prefixes allocates its outputs — per
//!   surveyed prefix the destination list, the in-range set, the candidate
//!   set, the fallback ranking, the ingress list and one VP queue per
//!   ingress, each cut to size in one allocation — plus a constant for the
//!   scratch, the tables and the global order, however many VPs answered or
//!   set-cover picks it took, and its sink trees: one block per surveyed
//!   destination position and per VP, made once, never per prefix;
//! * the standalone `probe_prefix` pays that scratch per call and nothing
//!   else — it lends no tree;
//! * `parse_rr` and `path_view` allocate nothing.
//!
//! Its own test binary because it installs a counting global allocator;
//! everything runs inside one `#[test]` because the count is process-wide.

use revtr_netsim::{Addr, Prefix, PrefixId, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::ingress::probe_prefix;
use revtr_vpselect::{parse_rr, path_view, Heuristics, IngressDb, PrefixInfo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting is one atomic add, so it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc` + `realloc` calls) made by `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

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
        allocs_in(|| IngressDb::build(&prober, &vps, &prefixes[1..], Heuristics::FULL));
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
    assert!(
        build <= outputs + BUILD_CONSTANT + tree_blocks(vps.len()),
        "IngressDb::build allocated {build} times for {outputs} output blocks"
    );

    let survey = prober.with_cache_enabled(false);
    for &p in &prefixes[1..] {
        let (info, n) = allocs_in(|| probe_prefix(&survey, &vps, p, Heuristics::FULL));
        assert!(
            n <= output_blocks(&info) + SCRATCH,
            "probe_prefix({p}) allocated {n} times for {} output blocks",
            output_blocks(&info)
        );
    }

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
    let ((), parsing) = allocs_in(|| {
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
