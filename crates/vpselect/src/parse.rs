//! Parsing Record Route replies for ingress identification (§4.3, Appx. C).
//!
//! An RR reply to a destination inside prefix `P` is a flat list of up to
//! nine addresses: forward-path stamps, possibly the destination's own
//! stamp(s), then reverse-path stamps. Identifying where the forward path
//! ends is non-trivial because destinations may not stamp, or stamp
//! off-prefix aliases — hence the double-stamp and loop heuristics.

use revtr_netsim::{Addr, Prefix, RrSlots};

/// What we inferred about one RR reply toward a prefix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RrParse {
    /// Index of the first slot whose address lies inside the destination
    /// prefix, if any — the baseline "reached" signal.
    pub in_prefix_idx: Option<usize>,
    /// Index of the first entry of an adjacent duplicate pair
    /// (`slots[i] == slots[i+1]`) — Appx. C double stamp.
    pub double_stamp_idx: Option<usize>,
    /// `(i, j)` with `slots[i] == slots[j]`, `j > i + 1`, and a loop-free
    /// interior — Appx. C loop: the packet reached the destination
    /// somewhere inside `(i, j)`.
    pub loop_span: Option<(usize, usize)>,
}

/// Analyse an RR slot list against a destination prefix.
pub fn parse_rr(slots: &[Addr], prefix: Prefix) -> RrParse {
    let mut p = RrParse::default();
    for (i, &a) in slots.iter().enumerate() {
        if prefix.contains(a) {
            p.in_prefix_idx = Some(i);
            break;
        }
    }
    for i in 0..slots.len().saturating_sub(1) {
        if slots[i] == slots[i + 1] {
            p.double_stamp_idx = Some(i);
            break;
        }
    }
    // Loop: first repeated address with a non-empty, loop-free interior.
    'outer: for i in 0..slots.len() {
        for j in i + 2..slots.len() {
            if slots[i] == slots[j] {
                let interior = &slots[i + 1..j];
                let clean = (1..interior.len()).all(|k| !interior[..k].contains(&interior[k]));
                if clean {
                    p.loop_span = Some((i, j));
                    break 'outer;
                }
            }
        }
    }
    p
}

/// Heuristic toggles for ingress identification (the rows of Table 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heuristics {
    /// Use the double-stamp signal when no in-prefix address is present.
    pub double_stamp: bool,
    /// Use the loop signal when nothing else worked.
    pub loops: bool,
}

impl Heuristics {
    /// Baseline: in-prefix addresses only.
    pub const INGRESS_ONLY: Heuristics = Heuristics {
        double_stamp: false,
        loops: false,
    };
    /// + double stamp.
    pub const WITH_DOUBLE: Heuristics = Heuristics {
        double_stamp: true,
        loops: false,
    };
    /// Full revtr 2.0: + double stamp + loop.
    pub const FULL: Heuristics = Heuristics {
        double_stamp: true,
        loops: true,
    };
}

/// Outcome of analysing one RR reply with a heuristic set: where the
/// forward path ends and which addresses are ingress candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathView {
    /// RR slot distance at which the destination (prefix) was reached, if
    /// determinable. This is the "within 8 hops" distance.
    pub dest_dist: Option<usize>,
    /// Candidate ingress addresses (forward-path slots up to and including
    /// the first in-prefix address, or heuristic equivalents), held inline:
    /// a subset of at most nine slots.
    pub candidates: RrSlots,
}

/// Extract the per-destination view from an RR reply.
///
/// # Panics
/// If the forward path holds more than nine distinct public addresses: a
/// reply has at most nine slots (RFC 791), and every probe primitive
/// returns its slots in an [`RrSlots`].
pub fn path_view(slots: &[Addr], prefix: Prefix, h: Heuristics) -> PathView {
    let p = parse_rr(slots, prefix);
    // `(distance, forward-path slots)` of the first signal that applies.
    let (dist, forward) = if let Some(cut) = p.in_prefix_idx {
        (cut, &slots[..=cut])
    } else if let (true, Some(cut)) = (h.double_stamp, p.double_stamp_idx) {
        // The doubled address is the destination (or its last hop);
        // everything up to it is forward path.
        (cut, &slots[..=cut])
    } else if let (true, Some((i, j))) = (h.loops, p.loop_span) {
        // Reached the destination somewhere inside (i, j): forward path is
        // the prefix up to `i` plus the (ambiguous) interior.
        (i, &slots[..j])
    } else {
        return PathView::default();
    };
    // First occurrence of each public address, in slot order.
    let mut candidates = RrSlots::new();
    for &a in forward {
        if !a.is_private() && !candidates.contains(&a) {
            candidates.push(a);
        }
    }
    PathView {
        dest_dist: Some(dist),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Addr {
        Addr(0x0B00_0000 + n)
    }

    fn prefix() -> Prefix {
        Prefix::new(Addr(0x0B10_8000), 24)
    }

    fn in_p(n: u32) -> Addr {
        Addr(0x0B10_8000 + n)
    }

    #[test]
    fn plain_in_prefix_cut() {
        let slots = [a(1), a(2), in_p(1), a(9), a(10)];
        let v = path_view(&slots, prefix(), Heuristics::INGRESS_ONLY);
        assert_eq!(v.dest_dist, Some(2));
        assert_eq!(*v.candidates, [a(1), a(2), in_p(1)]);
    }

    #[test]
    fn double_stamp_detected_only_when_enabled() {
        let slots = [a(1), a(2), a(3), a(3), a(9)];
        let off = path_view(&slots, prefix(), Heuristics::INGRESS_ONLY);
        assert_eq!(off.dest_dist, None);
        assert!(off.candidates.is_empty());
        let on = path_view(&slots, prefix(), Heuristics::WITH_DOUBLE);
        assert_eq!(on.dest_dist, Some(2));
        assert_eq!(*on.candidates, [a(1), a(2), a(3)]);
    }

    #[test]
    fn loop_detected_only_when_enabled() {
        // a(2) repeats with loop-free interior [a(3), a(4)].
        let slots = [a(1), a(2), a(3), a(4), a(2), a(9)];
        let v2 = path_view(&slots, prefix(), Heuristics::WITH_DOUBLE);
        assert_eq!(v2.dest_dist, None);
        let v3 = path_view(&slots, prefix(), Heuristics::FULL);
        assert_eq!(v3.dest_dist, Some(1));
        assert_eq!(*v3.candidates, [a(1), a(2), a(3), a(4)]);
    }

    #[test]
    fn in_prefix_beats_heuristics() {
        let slots = [a(1), in_p(7), a(3), a(3)];
        let v = path_view(&slots, prefix(), Heuristics::FULL);
        assert_eq!(v.dest_dist, Some(1));
        assert_eq!(*v.candidates, [a(1), in_p(7)]);
    }

    #[test]
    fn adjacent_duplicate_is_not_a_loop() {
        let slots = [a(1), a(3), a(3), a(9)];
        let p = parse_rr(&slots, prefix());
        assert_eq!(p.double_stamp_idx, Some(1));
        assert_eq!(p.loop_span, None);
    }

    #[test]
    fn private_addresses_excluded_from_candidates() {
        let slots = [a(1), Addr::new(10, 0, 0, 9), in_p(1)];
        let v = path_view(&slots, prefix(), Heuristics::FULL);
        assert_eq!(*v.candidates, [a(1), in_p(1)]);
    }

    #[test]
    fn empty_slots() {
        let v = path_view(&[], prefix(), Heuristics::FULL);
        assert_eq!(v, PathView::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_addr() -> impl Strategy<Value = Addr> {
        (0x0B00_0000u32..0x0B40_0000).prop_map(Addr)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// parse_rr never panics and its indices are in bounds.
        #[test]
        fn parse_indices_in_bounds(slots in proptest::collection::vec(arb_addr(), 0..9)) {
            let prefix = Prefix::new(Addr(0x0B10_8000), 24);
            let p = parse_rr(&slots, prefix);
            if let Some(i) = p.in_prefix_idx {
                prop_assert!(i < slots.len());
                prop_assert!(prefix.contains(slots[i]));
            }
            if let Some(i) = p.double_stamp_idx {
                prop_assert!(i + 1 < slots.len());
                prop_assert_eq!(slots[i], slots[i + 1]);
            }
            if let Some((i, j)) = p.loop_span {
                prop_assert!(j < slots.len());
                prop_assert!(j > i + 1);
                prop_assert_eq!(slots[i], slots[j]);
            }
        }

        /// Stronger heuristics never lose a destination-distance signal.
        #[test]
        fn heuristics_are_monotone(slots in proptest::collection::vec(arb_addr(), 0..9)) {
            let prefix = Prefix::new(Addr(0x0B10_8000), 24);
            let base = path_view(&slots, prefix, Heuristics::INGRESS_ONLY);
            let dbl = path_view(&slots, prefix, Heuristics::WITH_DOUBLE);
            let full = path_view(&slots, prefix, Heuristics::FULL);
            if base.dest_dist.is_some() {
                prop_assert!(dbl.dest_dist.is_some());
            }
            if dbl.dest_dist.is_some() {
                prop_assert!(full.dest_dist.is_some());
            }
        }

        /// Candidates are deduped, never private, and drawn from the slots.
        #[test]
        fn candidates_are_clean(slots in proptest::collection::vec(arb_addr(), 0..9)) {
            let prefix = Prefix::new(Addr(0x0B10_8000), 24);
            let v = path_view(&slots, prefix, Heuristics::FULL);
            let mut seen = Vec::new();
            for c in &v.candidates {
                prop_assert!(!c.is_private());
                prop_assert!(slots.contains(c));
                prop_assert!(!seen.contains(c), "duplicate candidate");
                seen.push(*c);
            }
        }
    }
}
