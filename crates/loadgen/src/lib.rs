//! Seed-pure open-loop traffic model for the revtr 2.0 service.
//!
//! Production Reverse Traceroute serves measurement requests from many
//! concurrent tenants — an M-Lab-style platform integration, scheduled
//! topology-mapping campaigns, an interactive portal, and the occasional
//! abusive scanner — all competing for one probe budget. This crate
//! models that demand as an **open-loop** arrival process: tenants offer
//! load on their own schedule, regardless of whether the service keeps
//! up. The gap between offered and served load is the quantity every
//! admission-control experiment measures.
//!
//! The generator is a pure function of its inputs: the same
//! `(profiles, dest_ranks, duration, seed)` tuple always yields the
//! byte-identical arrival stream, on any host, at any thread count.
//! Arrivals are drawn per tenant as an inhomogeneous Poisson process —
//! exponential gaps at the envelope's peak rate, thinned by the
//! time-varying rate factor (Lewis & Shedler) — then merged into one
//! stream totally ordered by `(virtual time, tenant, per-tenant
//! sequence)`. Destination popularity is Zipf over a rank space the
//! caller maps onto the topology's responsive prefixes; users are drawn
//! uniformly from each tenant's population, so a tenant with millions of
//! users spreads its load across sources while a 50-seat scanner hammers
//! from a handful.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use rand::{Rng, SeedableRng, StdRng};

/// Service priority classes, best first. Admission control spends the
/// probe budget on Gold before Silver before Bronze; the degradation
/// ladder sheds Bronze first and protects Gold to the end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Interactive / platform-integration traffic with an SLO.
    Gold,
    /// Scheduled batch campaigns: throughput-oriented, deadline-tolerant.
    Silver,
    /// Free-tier and best-effort traffic: first to shed, last to recover.
    Bronze,
}

/// Number of priority classes (array-index space for per-class state).
pub const N_CLASSES: usize = 3;

impl PriorityClass {
    /// Dense index: Gold = 0 … Bronze = 2.
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Gold => 0,
            PriorityClass::Silver => 1,
            PriorityClass::Bronze => 2,
        }
    }

    /// Lower-case class name for metric keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Gold => "gold",
            PriorityClass::Silver => "silver",
            PriorityClass::Bronze => "bronze",
        }
    }

    /// All classes, best first.
    pub fn all() -> [PriorityClass; N_CLASSES] {
        [
            PriorityClass::Gold,
            PriorityClass::Silver,
            PriorityClass::Bronze,
        ]
    }
}

/// Time-varying demand envelope: a multiplier on the tenant's base
/// offered rate as a function of virtual time in hours.
#[derive(Clone, Copy, Debug)]
pub enum Envelope {
    /// Constant demand.
    Steady,
    /// Sinusoidal day/night cycle:
    /// `1 + amplitude * sin(2π (t - phase) / period)`, clamped at 0.
    Diurnal {
        /// Peak-to-mean swing in [0, 1].
        amplitude: f64,
        /// Cycle length in virtual hours (24 for a day).
        period_hours: f64,
        /// Phase offset in virtual hours.
        phase_hours: f64,
    },
    /// A viral event: base demand outside the window, `multiplier` times
    /// base inside `[from_hours, until_hours)`.
    FlashCrowd {
        from_hours: f64,
        until_hours: f64,
        multiplier: f64,
    },
    /// Scan abuse: a square wave alternating between idle and
    /// `multiplier` times base, `duty` fraction of each period on.
    ScanBursts {
        period_hours: f64,
        duty: f64,
        multiplier: f64,
    },
}

impl Envelope {
    /// Rate multiplier at virtual time `t_hours` (>= 0).
    pub fn rate_factor(&self, t_hours: f64) -> f64 {
        match *self {
            Envelope::Steady => 1.0,
            Envelope::Diurnal {
                amplitude,
                period_hours,
                phase_hours,
            } => {
                let w = 2.0 * std::f64::consts::PI * (t_hours - phase_hours) / period_hours;
                (1.0 + amplitude * w.sin()).max(0.0)
            }
            Envelope::FlashCrowd {
                from_hours,
                until_hours,
                multiplier,
            } => {
                if t_hours >= from_hours && t_hours < until_hours {
                    multiplier
                } else {
                    1.0
                }
            }
            Envelope::ScanBursts {
                period_hours,
                duty,
                multiplier,
            } => {
                let pos = (t_hours / period_hours).fract();
                if pos < duty {
                    multiplier
                } else {
                    0.0
                }
            }
        }
    }

    /// Tight upper bound on `rate_factor` over all t — the thinning
    /// majorant for the inhomogeneous-Poisson draw.
    pub fn peak_factor(&self) -> f64 {
        match *self {
            Envelope::Steady => 1.0,
            Envelope::Diurnal { amplitude, .. } => 1.0 + amplitude.abs(),
            Envelope::FlashCrowd { multiplier, .. } => multiplier.max(1.0),
            Envelope::ScanBursts { multiplier, .. } => multiplier.max(0.0),
        }
    }
}

/// How a tenant picks destinations from the rank space.
#[derive(Clone, Copy, Debug)]
pub enum DestPick {
    /// Zipf(s) over ranks: popular content gets the bulk of requests,
    /// so sibling requests overlap and caches/stop sets can pay off.
    Zipf {
        /// Skew exponent; 0 = uniform, ~1 = classic web popularity.
        exponent: f64,
    },
    /// Sequential sweep through the rank space (scanner behaviour:
    /// every destination exactly once, in order, wrapping around).
    Sweep,
}

/// One tenant of the service: a named customer with a priority class, a
/// base offered rate, a demand envelope, a destination-popularity model,
/// and a simulated user population.
#[derive(Clone, Debug)]
pub struct TenantProfile {
    /// Stable display name (also the service-side account name).
    pub name: String,
    /// Priority class for admission and degradation.
    pub class: PriorityClass,
    /// Base offered load in requests per virtual hour (envelope = 1).
    pub offered_per_hour: f64,
    /// Demand envelope shaping the rate over time.
    pub envelope: Envelope,
    /// Destination-popularity model.
    pub dests: DestPick,
    /// Simulated users behind this tenant; arrivals carry a user id in
    /// `[0, population)` drawn uniformly, which the caller maps to a
    /// source (user affinity spreads hot destinations across sources).
    pub population: u64,
    /// Per-day request quota for the tenant's service account (`None`
    /// inherits the service default).
    pub daily_quota: Option<u64>,
}

/// One request arrival in the open-loop stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Virtual arrival time in milliseconds since campaign start.
    pub vtime_ms: f64,
    /// Index into the profile list this arrival belongs to.
    pub tenant: u32,
    /// The tenant's priority class (denormalised for cheap dispatch).
    pub class: PriorityClass,
    /// User id in `[0, population)` of the tenant.
    pub user: u64,
    /// Destination popularity rank in `[0, dest_ranks)`.
    pub dst_rank: usize,
    /// Per-tenant arrival sequence number (tie-break after vtime).
    pub seq: u64,
}

/// Zipf sampler over `n` ranks with exponent `s`: precomputed cumulative
/// weights + binary search. `s = 0` degenerates to uniform.
struct ZipfTable {
    cum: Vec<f64>,
}

impl ZipfTable {
    fn new(n: usize, s: f64) -> ZipfTable {
        let mut cum = Vec::with_capacity(n.max(1));
        let mut acc = 0.0;
        for rank in 0..n.max(1) {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cum.push(acc);
        }
        ZipfTable { cum }
    }

    fn sample(&self, u: f64) -> usize {
        let total = *self.cum.last().expect("non-empty zipf table");
        let target = u * total;
        // First rank whose cumulative weight exceeds the target.
        match self
            .cum
            .binary_search_by(|w| w.partial_cmp(&target).expect("finite weights"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cum.len() - 1),
        }
    }
}

/// Generate the merged open-loop arrival stream.
///
/// * `profiles` — the tenant mix; arrivals reference tenants by index.
/// * `dest_ranks` — size of the destination rank space (callers map
///   rank → concrete destination, most-popular first).
/// * `duration_hours` — stream length in virtual hours.
/// * `seed` — master seed; each tenant derives an independent stream
///   from `(seed, tenant index)`, so adding a tenant never perturbs the
///   others' arrivals.
///
/// The result is sorted by `(vtime_ms, tenant, seq)` — a total order,
/// since per-tenant sequences are strictly increasing.
pub fn generate(
    profiles: &[TenantProfile],
    dest_ranks: usize,
    duration_hours: f64,
    seed: u64,
) -> Vec<Arrival> {
    let mut all: Vec<Arrival> = Vec::new();
    for (ti, p) in profiles.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(ti as u64 + 1),
        );
        let peak_per_ms = p.offered_per_hour * p.envelope.peak_factor() / 3_600_000.0;
        if peak_per_ms <= 0.0 || duration_hours <= 0.0 {
            continue;
        }
        let zipf = match p.dests {
            DestPick::Zipf { exponent } => Some(ZipfTable::new(dest_ranks, exponent)),
            DestPick::Sweep => None,
        };
        let end_ms = duration_hours * 3_600_000.0;
        let mut t_ms = 0.0_f64;
        let mut seq = 0_u64;
        let mut sweep = 0_usize;
        loop {
            // Exponential gap at the majorant rate, then thin by the
            // envelope's instantaneous fraction of that majorant.
            let u: f64 = rng.gen();
            // u ∈ [0, 1) ⇒ 1-u ∈ (0, 1] ⇒ -ln(1-u) ∈ [0, ∞): a proper
            // exponential gap, never NaN and never negative.
            t_ms += -((1.0 - u).ln()) / peak_per_ms;
            if t_ms >= end_ms {
                break;
            }
            let accept: f64 = rng.gen();
            let frac =
                p.envelope.rate_factor(t_ms / 3_600_000.0) / p.envelope.peak_factor().max(1e-12);
            // Draw the user and rank unconditionally so the accepted
            // sub-stream stays a pure function of the thinning decision
            // (and rejected candidates don't shift later draws' meaning).
            let user = rng.gen::<u64>() % p.population.max(1);
            let rank_u: f64 = rng.gen();
            if accept >= frac {
                continue;
            }
            let dst_rank = match &zipf {
                Some(z) => z.sample(rank_u),
                None => {
                    let r = sweep % dest_ranks.max(1);
                    sweep += 1;
                    r
                }
            };
            all.push(Arrival {
                vtime_ms: t_ms,
                tenant: ti as u32,
                class: p.class,
                user,
                dst_rank,
                seq,
            });
            seq += 1;
        }
    }
    all.sort_by(|a, b| {
        a.vtime_ms
            .total_cmp(&b.vtime_ms)
            .then(a.tenant.cmp(&b.tenant))
            .then(a.seq.cmp(&b.seq))
    });
    all
}

/// Offered-load histogram: arrivals per class per time bucket, for the
/// goodput-vs-offered-load curve. Returns `buckets` rows of
/// `[count; N_CLASSES]`.
pub fn offered_histogram(
    arrivals: &[Arrival],
    duration_hours: f64,
    buckets: usize,
) -> Vec<[u64; N_CLASSES]> {
    let mut rows = vec![[0u64; N_CLASSES]; buckets.max(1)];
    let span_ms = (duration_hours * 3_600_000.0).max(1e-9);
    let last = rows.len() - 1;
    for a in arrivals {
        let b = ((a.vtime_ms / span_ms) * rows.len() as f64) as usize;
        rows[b.min(last)][a.class.index()] += 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Vec<TenantProfile> {
        vec![
            TenantProfile {
                name: "api".into(),
                class: PriorityClass::Gold,
                offered_per_hour: 40.0,
                envelope: Envelope::Steady,
                dests: DestPick::Zipf { exponent: 0.4 },
                population: 10_000,
                daily_quota: None,
            },
            TenantProfile {
                name: "portal".into(),
                class: PriorityClass::Bronze,
                offered_per_hour: 60.0,
                envelope: Envelope::FlashCrowd {
                    from_hours: 4.0,
                    until_hours: 8.0,
                    multiplier: 6.0,
                },
                dests: DestPick::Zipf { exponent: 1.1 },
                population: 2_000_000,
                daily_quota: None,
            },
            TenantProfile {
                name: "scanner".into(),
                class: PriorityClass::Bronze,
                offered_per_hour: 12.0,
                envelope: Envelope::ScanBursts {
                    period_hours: 6.0,
                    duty: 0.25,
                    multiplier: 4.0,
                },
                dests: DestPick::Sweep,
                population: 50,
                daily_quota: Some(64),
            },
        ]
    }

    #[test]
    fn same_seed_same_stream() {
        let a = generate(&mix(), 500, 12.0, 42);
        let b = generate(&mix(), 500, 12.0, 42);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&mix(), 500, 12.0, 1);
        let b = generate(&mix(), 500, 12.0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn stream_is_totally_ordered_and_well_formed() {
        let arr = generate(&mix(), 500, 12.0, 7);
        for w in arr.windows(2) {
            let ord = w[0]
                .vtime_ms
                .total_cmp(&w[1].vtime_ms)
                .then(w[0].tenant.cmp(&w[1].tenant))
                .then(w[0].seq.cmp(&w[1].seq));
            assert!(ord == std::cmp::Ordering::Less, "strict total order");
        }
        let profiles = mix();
        for a in &arr {
            let p = &profiles[a.tenant as usize];
            assert!(a.vtime_ms >= 0.0 && a.vtime_ms < 12.0 * 3_600_000.0);
            assert!(a.user < p.population);
            assert!(a.dst_rank < 500);
            assert_eq!(a.class, p.class);
        }
    }

    #[test]
    fn adding_a_tenant_preserves_existing_streams() {
        let base = mix();
        let mut extended = mix();
        extended.push(TenantProfile {
            name: "extra".into(),
            class: PriorityClass::Silver,
            offered_per_hour: 25.0,
            envelope: Envelope::Diurnal {
                amplitude: 0.5,
                period_hours: 24.0,
                phase_hours: 0.0,
            },
            dests: DestPick::Zipf { exponent: 0.7 },
            population: 1000,
            daily_quota: None,
        });
        let a: Vec<Arrival> = generate(&base, 500, 12.0, 42);
        let b: Vec<Arrival> = generate(&extended, 500, 12.0, 42)
            .into_iter()
            .filter(|x| x.tenant < base.len() as u32)
            .collect();
        assert_eq!(a, b, "tenant streams are independent");
    }

    #[test]
    fn flash_crowd_multiplies_in_window_only() {
        let profiles = vec![TenantProfile {
            name: "portal".into(),
            class: PriorityClass::Bronze,
            offered_per_hour: 200.0,
            envelope: Envelope::FlashCrowd {
                from_hours: 10.0,
                until_hours: 14.0,
                multiplier: 8.0,
            },
            dests: DestPick::Zipf { exponent: 1.0 },
            population: 1_000_000,
            daily_quota: None,
        }];
        let arr = generate(&profiles, 100, 24.0, 1);
        let in_window = arr
            .iter()
            .filter(|a| {
                let h = a.vtime_ms / 3_600_000.0;
                (10.0..14.0).contains(&h)
            })
            .count() as f64;
        let outside = (arr.len() as f64 - in_window).max(1.0);
        // 4h at 8x vs 20h at 1x: expect in-window rate ~8x the outside
        // rate; allow generous sampling noise.
        let ratio = (in_window / 4.0) / (outside / 20.0);
        assert!(
            ratio > 5.0 && ratio < 11.0,
            "flash ratio {ratio:.1} out of band"
        );
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let profiles = vec![TenantProfile {
            name: "portal".into(),
            class: PriorityClass::Bronze,
            offered_per_hour: 500.0,
            envelope: Envelope::Steady,
            dests: DestPick::Zipf { exponent: 1.1 },
            population: 1_000_000,
            daily_quota: None,
        }];
        let arr = generate(&profiles, 1000, 10.0, 3);
        let top10 = arr.iter().filter(|a| a.dst_rank < 10).count() as f64;
        let frac = top10 / arr.len() as f64;
        assert!(
            frac > 0.25,
            "zipf(1.1) should concentrate on head ranks, got {frac:.3}"
        );
        assert!(arr.iter().any(|a| a.dst_rank > 100), "tail is still hit");
    }

    #[test]
    fn scan_sweep_covers_ranks_sequentially() {
        let profiles = vec![TenantProfile {
            name: "scanner".into(),
            class: PriorityClass::Bronze,
            offered_per_hour: 100.0,
            envelope: Envelope::Steady,
            dests: DestPick::Sweep,
            population: 10,
            daily_quota: None,
        }];
        let arr = generate(&profiles, 37, 5.0, 9);
        for (i, a) in arr.iter().enumerate() {
            assert_eq!(a.dst_rank, i % 37, "sequential wrap-around sweep");
        }
    }

    #[test]
    fn diurnal_envelope_never_negative_and_peaks_bounded() {
        let e = Envelope::Diurnal {
            amplitude: 0.8,
            period_hours: 24.0,
            phase_hours: 6.0,
        };
        for i in 0..200 {
            let f = e.rate_factor(i as f64 * 0.37);
            assert!(f >= 0.0 && f <= e.peak_factor() + 1e-12);
        }
    }

    #[test]
    fn offered_histogram_partitions_the_stream() {
        let arr = generate(&mix(), 500, 12.0, 42);
        let rows = offered_histogram(&arr, 12.0, 6);
        let total: u64 = rows.iter().flat_map(|r| r.iter()).sum();
        assert_eq!(total, arr.len() as u64);
    }
}
