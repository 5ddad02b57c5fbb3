//! The workspace's one worker pool: the calling thread plus scoped helper
//! threads that poll, then park, between waves. A campaign's admission
//! waves (`revtr::WavePool`) and the ingress survey's prefix rounds
//! (`revtr_vpselect::IngressDb::build`) both run on it.
//!
//! A wave is *data*: the owner writes what the wave is into its [`Crew`]
//! (behind whatever lock or cursor the crew keeps), then [`Pool::wave`]
//! bumps the epoch, runs the owner's own share and waits for the helpers
//! to count out. Helpers start on the pool's first helped wave and serve
//! every later one, so a wave costs its work and its barrier, never a
//! thread; they are joined when the pool's scope ends.
//!
//! Orderings: `epoch` is stored `Release` after the owner has published
//! the wave and loaded `Acquire` by helpers, so a helper that sees the new
//! epoch sees the wave. `running` is decremented `Release` after a
//! helper's share and read `Acquire` by the owner, so at zero everything
//! the helpers wrote is visible.

use parking_lot::Mutex;
use revtr_telemetry::CachePadded;
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{Scope, ScopedJoinHandle, Thread};

/// Epoch value that tells parked helpers the pool is closing.
const CLOSED: u64 = u64::MAX;

/// How many times a waiter polls before it parks. A wave's straggler and
/// the barrier between two waves are both a few requests' worth of work —
/// tens of microseconds — which is also what a futex sleep and wake-up
/// cost; past that the thread gives its core back. (Measured on the
/// 2-core reference host, `campaign-batch`-shaped rounds: 2 000 polls ran
/// 4–8 % shorter than parking at once, for the same CPU; 200 and 20 000
/// were level with either. EXPERIMENTS.md *Pool: how long a waiter polls
/// before it parks*.)
const SPINS: u32 = 2_000;

/// Poll `ready`, then park until it holds. Whoever makes it true unparks
/// this thread afterwards, so a wake-up is never lost; a spurious one only
/// polls again.
fn wait_until(ready: impl Fn() -> bool) {
    for _ in 0..SPINS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    while !ready() {
        std::thread::park();
    }
}

/// The host's core count: how wide a pool may usefully go. Asked of the OS
/// once a process — the answer reads cgroup files (some 15 µs and four
/// allocations) and does not change under a running process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// What a pool's helpers run: each keeps a [`Crew::Local`] for the pool's
/// life and does one share of every wave it is woken for.
pub trait Crew: Sync {
    /// A helper's own working memory.
    type Local;
    /// A helper's working memory, made on its thread when it starts.
    fn hire(&self) -> Self::Local;
    /// One helper's share of the wave just published.
    fn work(&self, local: &mut Self::Local);
    /// Take a helper's working memory back as the pool closes.
    fn retire(&self, local: Self::Local);
}

/// Units `0..n` of a wave split into one home range per worker, each
/// claimed off a cursor of its own: a worker drains its own range first,
/// then the others' in turn. Every unit is claimed once; a worker keeps
/// mostly the same units from one wave to the next, and with them their
/// data in its cache; and none idles while another's range has units left.
/// With one range, units are claimed in order.
pub struct Claims {
    /// By range: the next unclaimed unit, and the end of the range.
    ranges: Box<[CachePadded<(AtomicUsize, AtomicUsize)>]>,
}

impl Claims {
    /// Claims over `width` home ranges (at least one), empty until reset.
    pub fn new(width: usize) -> Claims {
        let range = || CachePadded::new((AtomicUsize::new(0), AtomicUsize::new(0)));
        Claims {
            ranges: (0..width.max(1)).map(|_| range()).collect(),
        }
    }

    /// Split units `0..n` into the home ranges, as evenly as they go — for
    /// the next wave: the pool's epoch publishes them.
    pub fn reset(&self, n: usize) {
        let k = self.ranges.len();
        for (r, range) in self.ranges.iter().enumerate() {
            range.0.store(r * n / k, Ordering::Relaxed);
            range.1.store((r + 1) * n / k, Ordering::Relaxed);
        }
    }

    /// The units worker `worker` claims, in claiming order: its home
    /// range's (range `worker` modulo the count), then each later range's.
    pub fn claims(&self, worker: usize) -> impl Iterator<Item = usize> + '_ {
        let k = self.ranges.len();
        (0..k).flat_map(move |i| {
            let (next, end) = &*self.ranges[(worker + i) % k];
            std::iter::from_fn(move || {
                let unit = next.fetch_add(1, Ordering::Relaxed);
                (unit < end.load(Ordering::Relaxed)).then_some(unit)
            })
        })
    }
}

/// What the owner and its helpers share.
struct Shared<C> {
    crew: C,
    /// Waves published so far, or [`CLOSED`].
    epoch: AtomicU64,
    /// Helpers still inside the wave.
    running: AtomicUsize,
    /// The first panic a helper's share raised, for the owner to resume.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The pool's owner, which the last helper out of a wave unparks.
    owner: Thread,
}

impl<C: Crew> Shared<C> {
    /// A helper thread's life: park until a wave is published, do its
    /// share behind a panic fence, count out, until the pool closes.
    fn help(&self) {
        let mut local = self.crew.hire();
        let mut seen = 0;
        loop {
            wait_until(|| self.epoch.load(Ordering::Acquire) != seen);
            seen = self.epoch.load(Ordering::Acquire);
            if seen == CLOSED {
                break;
            }
            let share = std::panic::AssertUnwindSafe(|| self.crew.work(&mut local));
            if let Err(payload) = std::panic::catch_unwind(share) {
                self.panic.lock().get_or_insert(payload);
            }
            if self.running.fetch_sub(1, Ordering::Release) == 1 {
                self.owner.unpark();
            }
        }
        self.crew.retire(local);
    }
}

/// A pool of up to `width` workers, the calling thread included, opened by
/// [`scoped`]. Its owner is the thread that opened it: only that thread
/// runs waves.
pub struct Pool<'scope, 'env, C> {
    shared: &'env Shared<C>,
    scope: &'scope Scope<'scope, 'env>,
    helpers: Vec<ScopedJoinHandle<'scope, ()>>,
    width: usize,
}

/// Open a pool of `width` workers (at least one: the caller) over `crew`
/// and hand it to `f`. The pool closes when dropped — at the latest as `f`
/// returns — and the helpers it started are joined before this returns.
pub fn scoped<C: Crew, R>(crew: C, width: usize, f: impl FnOnce(Pool<'_, '_, C>) -> R) -> R {
    let shared = Shared {
        crew,
        epoch: AtomicU64::new(0),
        running: AtomicUsize::new(0),
        panic: Mutex::new(None),
        owner: std::thread::current(),
    };
    std::thread::scope(|scope| {
        f(Pool {
            shared: &shared,
            scope,
            helpers: Vec::new(),
            width: width.max(1),
        })
    })
}

impl<'env, C: Crew> Pool<'_, 'env, C> {
    /// The crew the pool's waves publish to.
    pub fn crew(&self) -> &'env C {
        &self.shared.crew
    }

    /// Workers a wave may use, the owner included.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Run one wave whose data the owner has published to the crew: wake
    /// every helper to do its share (starting them on the pool's first
    /// helped wave), run `own` — the owner's share, and whatever else it
    /// overlaps with the helpers' — then wait for every helper to count
    /// out. An unhelped wave, or one on a pool of width 1, runs `own` alone
    /// and wakes no one. A helper's panic resumes here once the wave is
    /// over.
    pub fn wave<R>(&mut self, helped: bool, own: impl FnOnce(&'env C) -> R) -> R {
        let shared = self.shared;
        let helped = helped && self.width > 1;
        if helped {
            while self.helpers.len() + 1 < self.width {
                self.helpers.push(self.scope.spawn(move || shared.help()));
            }
            shared.running.store(self.helpers.len(), Ordering::Relaxed);
            shared.epoch.fetch_add(1, Ordering::Release);
            self.helpers.iter().for_each(|h| h.thread().unpark());
        }
        let r = own(&shared.crew);
        if helped {
            wait_until(|| shared.running.load(Ordering::Acquire) == 0);
        }
        if let Some(payload) = shared.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
        r
    }

    /// Helper threads started so far.
    pub fn helpers(&self) -> usize {
        self.helpers.len()
    }
}

impl<C> Drop for Pool<'_, '_, C> {
    /// Close the pool: helpers wake, hand their working memory back and
    /// exit; the scope the pool lives in joins them.
    fn drop(&mut self) {
        self.shared.epoch.store(CLOSED, Ordering::Release);
        self.helpers.iter().for_each(|h| h.thread().unpark());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Adds its worker's share, once per wave, to a total; counts the
    /// helpers hired and retired.
    struct Tally<'a> {
        total: &'a AtomicU32,
        hired: &'a AtomicU32,
        retired: &'a AtomicU32,
    }

    impl Crew for Tally<'_> {
        type Local = u32;
        fn hire(&self) -> u32 {
            self.hired.fetch_add(1, Ordering::Relaxed);
            1
        }
        fn work(&self, local: &mut u32) {
            self.total.fetch_add(*local, Ordering::Relaxed);
        }
        fn retire(&self, _: u32) {
            self.retired.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_helper_does_one_share_a_helped_wave() {
        let [total, hired, retired] = [0; 3].map(AtomicU32::new);
        let crew = Tally {
            total: &total,
            hired: &hired,
            retired: &retired,
        };
        let (helpers, shares) = scoped(crew, 3, |mut pool| {
            pool.wave(false, |c| c.work(&mut 0));
            assert_eq!(pool.helpers(), 0, "an unhelped wave started a thread");
            let mut shares = Vec::new();
            for _ in 0..5 {
                pool.wave(true, |c| c.work(&mut 10));
                shares.push(total.swap(0, Ordering::Relaxed));
            }
            (pool.helpers(), shares)
        });
        assert_eq!(helpers, 2);
        assert_eq!(shares, [12; 5], "the owner's 10 and one from each helper");
        assert_eq!(hired.load(Ordering::Relaxed), 2);
        assert_eq!(retired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_width_one_pool_starts_no_thread() {
        let [total, hired, retired] = [0; 3].map(AtomicU32::new);
        let crew = Tally {
            total: &total,
            hired: &hired,
            retired: &retired,
        };
        scoped(crew, 1, |mut pool| {
            pool.wave(true, |c| c.work(&mut 3));
            assert_eq!(pool.helpers(), 0);
        });
        assert_eq!(total.load(Ordering::Relaxed), 3);
        assert_eq!(hired.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn claims_hand_out_every_unit_once_home_range_first() {
        let claims = Claims::new(3);
        for n in [0, 1, 2, 7, 12] {
            claims.reset(n);
            let home = n / 3..2 * n / 3;
            let first: Vec<usize> = claims.claims(1).take(home.len()).collect();
            assert_eq!(first, home.collect::<Vec<_>>(), "n {n}");
            let mut all: Vec<usize> = first;
            all.extend(claims.claims(0));
            all.extend(claims.claims(2));
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "n {n}");
        }
        // One range: in order.
        let one = Claims::new(1);
        one.reset(5);
        assert_eq!(one.claims(0).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    }

    struct Panics;

    impl Crew for Panics {
        type Local = ();
        fn hire(&self) {}
        fn work(&self, _: &mut ()) {
            panic!("a helper's share");
        }
        fn retire(&self, _: ()) {}
    }

    #[test]
    fn a_helpers_panic_resumes_on_the_owner() {
        let caught =
            std::panic::catch_unwind(|| scoped(Panics, 2, |mut pool| pool.wave(true, |_| ())));
        let payload = caught.expect_err("the helper's panic reaches the owner");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a helper's share"));
    }
}
