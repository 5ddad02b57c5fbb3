//! Virtual measurement clock.
//!
//! All latency in the reproduction is *virtual*: probes advance the clock by
//! their simulated RTT, spoofed batches by their 10-second collection
//! timeout (paper §5.2.4). The clock periodically flushes accumulated time
//! into the simulator so route churn progresses while campaigns run.
//!
//! [`Clock`] is the *shared* clock: `now_ms` is the sum of every advance
//! any thread ever made, so it says how much measurement the whole system
//! has done, not how long one request took. A request's own time is kept
//! by its [`crate::Meter`], which the prober charges alongside this clock.
//!
//! Every probe charges the clock, so this is one of the hottest shared
//! structures in a parallel campaign. Instead of one global mutex, time
//! accumulates into an array of cache-line-padded atomic slots: each
//! thread picks a slot by its ordinal and CAS-adds its advances there, so
//! concurrent workers touch disjoint cache lines. `now_ms` sums the slots
//! — totals stay immediately, globally accurate — and each slot flushes
//! its own pending time into churn at a 1-virtual-minute threshold (a
//! serial run uses one slot, so its flush points are a function of its
//! advances alone).

use revtr_netsim::{CachePadded, Sim};
use revtr_telemetry::thread_stripe;
use std::sync::atomic::{AtomicU64, Ordering};

/// Spoofed-probe batch collection timeout, in virtual milliseconds
/// (paper §5.2.4: "we empirically set this timeout to 10 seconds").
pub const SPOOF_BATCH_TIMEOUT_MS: f64 = 10_000.0;

/// Accumulated virtual time pending before a churn flush (1 virtual minute).
const FLUSH_THRESHOLD_MS: f64 = 60_000.0;

/// Number of padded accumulation slots. Threads beyond this many share
/// slots (all updates are CAS loops, so sharing is safe, just slower).
const N_SLOTS: usize = 16;

/// Per-slot accumulators; both store `f64::to_bits`.
#[derive(Debug, Default)]
struct TimeSlot {
    total_ms: AtomicU64,
    pending_ms: AtomicU64,
}

/// CAS-add `delta` to an f64 stored as bits in `a`; returns the new value.
fn add_f64(a: &AtomicU64, delta: f64) -> f64 {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(cur) + delta;
        match a.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return new,
            Err(c) => cur = c,
        }
    }
}

/// Atomically take the whole f64 out of `a`, leaving zero.
fn take_f64(a: &AtomicU64) -> f64 {
    f64::from_bits(a.swap(0.0f64.to_bits(), Ordering::Relaxed))
}

/// A shareable virtual clock.
#[derive(Debug, Default)]
pub struct Clock {
    slots: [CachePadded<TimeSlot>; N_SLOTS],
}

impl Clock {
    /// A clock at zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Total virtual milliseconds elapsed (sum over all threads' advances;
    /// immediately accurate, not batched).
    pub fn now_ms(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| f64::from_bits(s.total_ms.load(Ordering::Relaxed)))
            .sum()
    }

    /// Virtual milliseconds accumulated but not yet flushed into the
    /// simulator's churn process (sum over all slots). The simulator's
    /// own `now_hours` lags true virtual time by exactly this amount, so
    /// `sim.now_hours() + pending_ms() / 3_600_000` is the authoritative
    /// "now" — immediate like [`Clock::now_ms`], but also counting time
    /// drivers advanced on the simulator directly.
    pub fn pending_ms(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| f64::from_bits(s.pending_ms.load(Ordering::Relaxed)))
            .sum()
    }

    /// How many accumulation slots have ever advanced: the distinct
    /// [`thread_stripe`] ordinals (modulo the slot count) of the threads
    /// that charged this clock. Each slot holds back up to a virtual
    /// minute of its own, so this bounds how far the simulator can lag.
    pub fn slots_advanced(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.total_ms.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Advance the clock; flushes churn time into `sim` once this thread's
    /// slot has accumulated enough.
    pub fn advance(&self, ms: f64, sim: &Sim) {
        debug_assert!(ms >= 0.0, "time flows forward");
        let slot = &self.slots[thread_stripe() % N_SLOTS];
        add_f64(&slot.total_ms, ms);
        if add_f64(&slot.pending_ms, ms) >= FLUSH_THRESHOLD_MS {
            let p = take_f64(&slot.pending_ms);
            if p > 0.0 {
                sim.advance_hours(p / 3_600_000.0);
            }
        }
    }

    /// Force all pending time (every slot) into the simulator's churn
    /// process.
    pub fn flush(&self, sim: &Sim) {
        let p: f64 = self.slots.iter().map(|s| take_f64(&s.pending_ms)).sum();
        if p > 0.0 {
            sim.advance_hours(p / 3_600_000.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::SimConfig;

    #[test]
    fn clock_accumulates_and_flushes() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let clock = Clock::new();
        assert_eq!(clock.now_ms(), 0.0);
        clock.advance(1500.0, &sim);
        assert!((clock.now_ms() - 1500.0).abs() < 1e-9);
        // Below threshold: sim time untouched until an explicit flush.
        assert_eq!(sim.now_hours(), 0.0);
        clock.flush(&sim);
        assert!((sim.now_hours() - 1500.0 / 3_600_000.0).abs() < 1e-12);
    }

    #[test]
    fn large_advance_flushes_automatically() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let clock = Clock::new();
        clock.advance(120_000.0, &sim);
        assert!(sim.now_hours() > 0.0);
    }

    #[test]
    fn concurrent_advances_sum_exactly() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let clock = Clock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        clock.advance(2.5, &sim);
                    }
                });
            }
        });
        // 8 threads x 1000 advances x 2.5 ms: each addend is exactly
        // representable, so the total is exact regardless of interleaving.
        assert_eq!(clock.now_ms(), 8.0 * 1000.0 * 2.5);
        // Everything below per-slot threshold: flush drains the remainder.
        clock.flush(&sim);
        assert!((sim.now_hours() - 20_000.0 / 3_600_000.0).abs() < 1e-9);
    }
}
