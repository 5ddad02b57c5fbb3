//! The revtr 2.0 service (Appx. A): users request reverse traceroutes to
//! registered sources through an API façade; the service enforces rate
//! limits, bootstraps sources, archives results, and runs batch campaigns
//! through `RevtrSystem::run_campaign`.

use crate::store::ResultStore;
use crate::users::{ApiKey, RateLimits, UserDb, UserError};
use revtr::{LoopConfig, RevtrResult, RevtrSystem};
use revtr_netsim::{Addr, TraceResult};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-request tuning options (Appx. A: "the user can specify options to
/// tune the request, such as how stale traceroutes are allowed to be and
/// whether to run a forward traceroute after the Reverse Traceroute
/// completes").
#[derive(Clone, Copy, Debug, Serialize, Deserialize, Default)]
pub struct RequestOptions {
    /// Maximum acceptable age (virtual hours) of the atlas traceroute the
    /// measurement intersects; the source's atlas is refreshed first when
    /// it is older. `None` accepts any age.
    pub max_atlas_age_hours: Option<f64>,
    /// Also run a forward traceroute source → destination and return it
    /// alongside the reverse path.
    pub with_forward_traceroute: bool,
}

/// A served request: the reverse traceroute plus optional extras.
#[derive(Clone, Debug)]
pub struct ServedRequest {
    /// The reverse traceroute.
    pub reverse: RevtrResult,
    /// The complementary forward traceroute, when requested.
    pub forward: Option<TraceResult>,
}

/// Service-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Rejected by the user/limits layer.
    User(UserError),
    /// The source failed bootstrap: it cannot receive RR packets, so
    /// Reverse Traceroute cannot serve it (Appx. A).
    SourceBootstrapFailed,
    /// System overloaded (NDT-triggered measurements are best-effort).
    Overloaded,
    /// A batch-campaign measurement panicked; the campaign's results were
    /// discarded but the service itself remains usable.
    WorkerPanicked,
}

impl From<UserError> for ServiceError {
    fn from(e: UserError) -> Self {
        ServiceError::User(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::User(e) => write!(f, "{e}"),
            ServiceError::SourceBootstrapFailed => {
                write!(f, "source cannot receive record route packets")
            }
            ServiceError::Overloaded => write!(f, "system overloaded"),
            ServiceError::WorkerPanicked => write!(f, "batch campaign worker panicked"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// RAII permit for one in-flight NDT measurement: acquired against a cap,
/// released on drop — including the unwind path, so a panicking
/// measurement cannot leak its slot and permanently shrink the cap.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl<'a> InFlightGuard<'a> {
    fn acquire(counter: &'a AtomicUsize, cap: usize) -> Option<InFlightGuard<'a>> {
        if counter.fetch_add(1, Ordering::SeqCst) >= cap {
            counter.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InFlightGuard(counter))
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Soft cap on concurrent NDT-triggered measurements.
const NDT_LOAD_CAP: usize = 64;

/// The service façade over a [`RevtrSystem`].
pub struct RevtrService<'s> {
    system: RevtrSystem<'s>,
    users: UserDb,
    store: ResultStore,
    ndt_in_flight: AtomicUsize,
}

impl<'s> RevtrService<'s> {
    /// Wrap a measurement system as a service.
    pub fn new(system: RevtrSystem<'s>) -> RevtrService<'s> {
        RevtrService {
            system,
            users: UserDb::new(),
            store: ResultStore::new(),
            ndt_in_flight: AtomicUsize::new(0),
        }
    }

    /// The underlying measurement system.
    pub fn system(&self) -> &RevtrSystem<'s> {
        &self.system
    }

    /// The user registry (admission layers build on it).
    pub(crate) fn users(&self) -> &UserDb {
        &self.users
    }

    /// The service's virtual "now" in hours.
    ///
    /// This is the *authoritative* time source for admission decisions:
    /// the simulator's `now_hours` lags true virtual time by whatever
    /// the clock has accumulated but not yet flushed (up to a virtual
    /// minute per clock slot), so a measurement charging probe time
    /// right before a day boundary can cross it without the simulator
    /// noticing until the next flush. Daily-quota day boundaries must
    /// land at the same instant on the single-shot and campaign paths
    /// regardless of flush state, so both paths — and any admission
    /// layer built on the service — use this helper.
    pub fn now_hours(&self) -> f64 {
        self.system.prober().clock_hours()
    }

    /// The stuck-request watchdog report: served requests whose
    /// measurement overran the telemetry handle's virtual deadline,
    /// flagged with the deepest span open at the deadline. The service
    /// never kills a stuck measurement (a 10 s spoofed-batch stall still
    /// yields a usable path) — the watchdog makes the stall visible.
    pub fn watchdog_flags(&self) -> Vec<revtr_probing::WatchdogFlag> {
        self.system.watchdog_flags()
    }

    /// The result archive.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Register a user.
    pub fn add_user(&self, name: &str, limits: RateLimits) -> ApiKey {
        self.users.add_user(name, limits)
    }

    /// Register a source for a user: checks the host can receive RR
    /// packets, then bootstraps its traceroute atlas (and RR-atlas) — the
    /// ~15-minute process of Appx. A. The simulator does not model RIPE
    /// Atlas's scheduling delay: here the bootstrap is one collection
    /// round of a few virtual seconds.
    pub fn add_source(&self, key: ApiKey, src: Addr) -> Result<(), ServiceError> {
        // Bootstrap check: send the source an RR ping from a VP; if the
        // source can't receive RR packets, Reverse Traceroute can't work.
        let vp = self.system.vps().first().copied();
        let reachable = match vp {
            Some(vp) => self.system.prober().rr_ping(vp, src).is_some(),
            None => false,
        };
        if !reachable {
            return Err(ServiceError::SourceBootstrapFailed);
        }
        self.users.add_source(key, src)?;
        self.system.register_source(src);
        Ok(())
    }

    /// One on-demand reverse traceroute request (REST/gRPC equivalent).
    pub fn request(&self, key: ApiKey, dst: Addr, src: Addr) -> Result<RevtrResult, ServiceError> {
        Ok(self
            .request_with(key, dst, src, RequestOptions::default())?
            .reverse)
    }

    /// An on-demand request with per-request options (Appx. A).
    pub fn request_with(
        &self,
        key: ApiKey,
        dst: Addr,
        src: Addr,
        opts: RequestOptions,
    ) -> Result<ServedRequest, ServiceError> {
        let tele = self.system.prober().telemetry();
        let permit = match self.users.admit(key, src, self.now_hours()) {
            Ok(p) => {
                tele.counter_add("service.request.admitted", 1);
                p
            }
            Err(e) => {
                tele.counter_add("service.request.rejected", 1);
                return Err(e.into());
            }
        };
        let reverse = {
            let result = self.system.measure(dst, src);
            match (
                opts.max_atlas_age_hours,
                result.stats.intersected_trace_age_h,
            ) {
                (Some(max), Some(age)) if age > max => {
                    // Too stale: refresh the atlas and re-measure.
                    self.system.refresh_atlas(src);
                    self.system.measure(dst, src)
                }
                _ => result,
            }
        };
        drop(permit);
        self.store.push(&reverse);
        let forward = if opts.with_forward_traceroute {
            self.system.prober().traceroute_fresh(src, dst)
        } else {
            None
        };
        Ok(ServedRequest { reverse, forward })
    }

    /// A batch campaign: measure every `(dst, src)` pair with
    /// `RevtrSystem::run_campaign` (topology-mapping use case, §3).
    /// `workers` is the campaign's width — scoped threads claiming pairs
    /// and driving each to completion; campaign results are invariant to
    /// it. Results are archived and returned in input order.
    pub fn batch(
        &self,
        key: ApiKey,
        pairs: &[(Addr, Addr)],
        workers: usize,
    ) -> Result<Vec<RevtrResult>, ServiceError> {
        // Admission, all or nothing: every source the user's, the daily
        // quota covering every pair (campaigns are still subject to
        // per-user limits; the parallel-slot limit is replaced by the
        // campaign width here).
        let sources = pairs.iter().map(|&(_, src)| src);
        self.users.admit_batch(key, sources, self.now_hours())?;
        let workers = workers.max(1).min(pairs.len().max(1));
        let tele = self.system.prober().telemetry();
        if tele.is_enabled() {
            tele.counter_add("service.batch.campaigns", 1);
            tele.record("service.batch.size", pairs.len() as u64);
            tele.record("service.batch.workers", workers as u64);
        }
        // Queue depth at admission is a pure function of the index, so
        // the recorded distribution is identical for any worker count
        // (and matches what the old thread pool recorded at claim time).
        for i in 0..pairs.len() {
            tele.record("service.batch.queue_depth", (pairs.len() - i) as u64);
        }
        // A panicking measurement surfaces as a `ServiceError` instead of
        // unwinding into the caller with the campaign half-archived.
        let outcome = self
            .system
            .run_campaign(pairs, LoopConfig { workers })
            .map_err(|_| ServiceError::WorkerPanicked)?;
        for r in &outcome.results {
            self.store.push(r);
        }
        Ok(outcome.results)
    }

    /// NDT hook (Appx. A): when a speed-test client measures against an
    /// M-Lab server, complement the forward traceroute with a reverse one —
    /// accepted or rejected based on system load.
    pub fn on_ndt_test(&self, client: Addr, server: Addr) -> Result<RevtrResult, ServiceError> {
        // RAII slot: released on every exit path, including a panicking
        // `measure` — a leaked slot would permanently shrink the cap.
        let tele = self.system.prober().telemetry();
        let Some(_slot) = InFlightGuard::acquire(&self.ndt_in_flight, NDT_LOAD_CAP) else {
            tele.counter_add("service.ndt.overloaded", 1);
            return Err(ServiceError::Overloaded);
        };
        tele.counter_add("service.ndt.accepted", 1);
        self.system.register_source(server);
        let r = self.system.measure(client, server);
        self.store.push(&r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_guard_enforces_cap_and_survives_panics() {
        let counter = AtomicUsize::new(0);
        let a = InFlightGuard::acquire(&counter, 2).expect("slot 1");
        let _b = InFlightGuard::acquire(&counter, 2).expect("slot 2");
        assert!(InFlightGuard::acquire(&counter, 2).is_none(), "cap hit");
        drop(a);
        assert_eq!(counter.load(Ordering::SeqCst), 1);

        // Regression: a panic while holding the slot must still release it
        // (the old fetch_add/fetch_sub pairing leaked it permanently).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = InFlightGuard::acquire(&counter, 2).expect("slot");
            panic!("measurement blew up");
        }));
        assert!(r.is_err());
        assert_eq!(counter.load(Ordering::SeqCst), 1, "slot leaked by panic");
    }
}
