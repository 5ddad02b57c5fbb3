//! The task meter: one measurement's own clock and probe tally.
//!
//! The paper's headline costs are *per reverse traceroute* — probes per
//! revtr (Table 4), latency per revtr (Fig. 5c). The shared [`Clock`] and
//! [`Counters`] cannot answer either under a pool: they sum every worker's
//! charges. So whoever runs a measurement owns a [`Meter`] and lends it to
//! each probe call; the prober charges every virtual millisecond and every
//! counted probe to the shared totals *and* to the meter. What the meter
//! reads is then a function of the measurement's own probe sequence —
//! whichever thread ran it, beside whatever else — which is what lets
//! durations, per-request probe deltas, telemetry span offsets and stop-set
//! stamps repeat bit for bit at any pool width.
//!
//! Plain data: no cell, no atomics, nothing shared. A caller with no use
//! for the reading (background surveys, atlas builds) goes through the
//! prober's meterless wrappers, which charge a throw-away one.
//!
//! [`Clock`]: crate::clock::Clock
//! [`Counters`]: crate::counters::Counters

use crate::counters::Snapshot;

/// Virtual time and probes charged to one task.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Meter {
    /// The task's virtual now, in milliseconds: its origin plus every
    /// charge since, summed in charge order.
    pub ms: f64,
    /// Everything counted on the task's behalf, by kind.
    pub tally: Snapshot,
}

impl Meter {
    /// A meter whose clock starts at `origin_ms` (0 for a job with no
    /// arrival time), with nothing tallied.
    pub fn at(origin_ms: f64) -> Meter {
        Meter {
            ms: origin_ms,
            tally: Snapshot::default(),
        }
    }
}
