//! A persistent worker pool that runs the 64 CPE lanes of a kernel on
//! real OS threads — the execution substrate of the *native* backend.
//!
//! The metered [`CoreGroup`](crate::cg::CoreGroup) spawns scoped threads
//! per region and charges simulated cycles; this pool is its wall-clock
//! counterpart: workers are spawned once and parked on a condvar, a
//! region submits one closure that every logical lane index is fed
//! through, and lanes are handed to whichever worker wakes first.
//! Determinism therefore cannot come from the schedule — it comes from
//! the kernels: each lane owns a fixed slice of the work (the same
//! `block_range` partition at all thread counts) and all cross-lane
//! merging happens after the join, in lane-index order.
//!
//! Per-lane bookkeeping mirrors the metered path so the rest of the
//! stack cannot tell the backends apart: the trace layer sees the lane
//! as its CPE id ([`trace::set_current_cpe`](crate::trace::set_current_cpe)),
//! fault injection addresses it by lane, and an injected CPE hang walks
//! the metered spawn's bounded respawn loop (`cg::respawn_stragglers`)
//! — decided *before* the lane body runs, so a hang never perturbs the
//! physics.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Number of logical lanes a kernel region is divided into (one per CPE
/// of a core group), independent of how many OS threads execute them.
pub const N_LANES: usize = crate::params::CPES_PER_CG;

/// A type-erased pointer to the lane closure of the active region. The
/// pointee lives on [`NativePool::run`]'s stack; it stays valid for the
/// whole region because `run` does not return until every lane has
/// completed (`remaining == 0`), and workers only dereference the
/// pointer between claiming a lane and reporting it done.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-reference calls from many
// threads are allowed) and outlives every dereference (see above).
unsafe impl Send for Job {}

struct State {
    job: Option<Job>,
    n_lanes: usize,
    next_lane: usize,
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when a new region is submitted (or on shutdown).
    work: Condvar,
    /// Signaled when the last lane of a region completes.
    done: Condvar,
}

/// A kernel region was poisoned: at least one lane body panicked.
///
/// The pool itself survives — every lane of the region was drained
/// before this was reported, so the next region starts clean. Callers
/// that can roll back (the fault-tolerant runner restores the last
/// checkpoint and replays) treat this exactly like a step abort;
/// callers that cannot propagate it as a panic via [`NativePool::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePanic;

impl std::fmt::Display for LanePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "native pool: a kernel lane panicked")
    }
}

impl std::error::Error for LanePanic {}

/// Persistent thread pool executing kernel lanes for the native backend.
pub struct NativePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl NativePool {
    /// Pool sized to the host (`available_parallelism`, capped at
    /// [`N_LANES`] — more threads than lanes can never help).
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(n.min(N_LANES))
    }

    /// Pool with exactly `n_threads` workers (≥ 1). The physics output
    /// is identical at every thread count; only wall time changes.
    pub fn with_threads(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                n_lanes: 0,
                next_lane: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..n_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cpe-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            n_threads,
        }
    }

    /// Number of OS threads serving lanes.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Run one region: `f` is invoked once per lane in `0..n_lanes`,
    /// from pool worker threads, and `run` returns after every lane has
    /// completed. Panics (after draining the region) if any lane body
    /// panicked.
    pub fn run<F: Fn(usize) + Sync>(&self, n_lanes: usize, f: F) {
        assert!(
            self.try_run(n_lanes, f).is_ok(),
            "native pool: a kernel lane panicked"
        );
    }

    /// Like [`NativePool::run`], but a panicked lane is surfaced as
    /// [`LanePanic`] after the region drains instead of re-panicking on
    /// the submitter thread. The pool stays usable either way; partial
    /// lane output from a poisoned region must be discarded by the
    /// caller (the fault-tolerant runner restores its checkpoint).
    pub fn try_run<F: Fn(usize) + Sync>(&self, n_lanes: usize, f: F) -> Result<(), LanePanic> {
        if n_lanes == 0 {
            return Ok(());
        }
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erases the closure's lifetime to park it in the shared
        // state. The pointee outlives all uses: this function blocks
        // below until `remaining == 0`, after which no worker touches
        // the pointer again.
        let erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(erased) };
        let job = Job(erased as *const _);

        let mut st = self.shared.state.lock().unwrap();
        // One region at a time: a second submitter waits for the pool to
        // drain (the engine is single-threaded; this guards tests).
        while st.job.is_some() || st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = Some(job);
        st.n_lanes = n_lanes;
        st.next_lane = 0;
        st.remaining = n_lanes;
        st.panicked = false;
        self.shared.work.notify_all();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        let poisoned = st.panicked;
        st.panicked = false;
        drop(st);
        if poisoned {
            Err(LanePanic)
        } else {
            Ok(())
        }
    }
}

impl Default for NativePool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for NativePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let lane;
        let f;
        {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = &st.job {
                    if st.next_lane < st.n_lanes {
                        f = job.0;
                        break;
                    }
                }
                st = shared.work.wait(st).unwrap();
            }
            lane = st.next_lane;
            st.next_lane += 1;
        }
        // SAFETY: `f` stays valid until this lane is reported done (see
        // `Job`); the call happens strictly before the decrement below.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_lane(unsafe { &*f }, lane)
        }));
        let mut st = shared.state.lock().unwrap();
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            st.job = None;
            shared.done.notify_all();
        }
    }
}

/// Execute one lane body with the same per-lane bookkeeping the metered
/// spawn does: the trace layer addresses the thread as CPE `lane`, fault
/// injection addresses it by lane, and an injected CPE hang replays the
/// bounded respawn protocol *before* the body runs (zero side effects on
/// the physics, so fault-on and fault-off runs stay bit-identical).
fn run_lane(f: &(dyn Fn(usize) + Sync), lane: usize) {
    crate::trace::set_current_cpe(Some(lane));
    let faults = swfault::enabled();
    if faults {
        swfault::set_lane(Some(lane));
        // The pool has no simulated clock to charge, so the respawn
        // cost is dropped: the penalty is the wall-clock respawn itself.
        crate::cg::respawn_stragglers();
        // An injected worker-thread panic, decided *before* the lane
        // body runs so a poisoned region leaves no partial physics from
        // this lane. The worker's catch_unwind absorbs it; the region
        // is reported poisoned after the drain.
        if swfault::should(swfault::Site::LanePanic) {
            crate::trace::emit_abort("lane-panic");
            swfault::set_lane(None);
            crate::trace::set_current_cpe(None);
            panic!("injected pool worker panic (lane {lane})");
        }
    }
    f(lane);
    if faults {
        swfault::set_lane(None);
    }
    crate::trace::set_current_cpe(None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_lane_exactly_once() {
        let pool = NativePool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..N_LANES).map(|_| AtomicUsize::new(0)).collect();
        pool.run(N_LANES, |lane| {
            hits[lane].fetch_add(1, Ordering::Relaxed);
        });
        for (lane, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "lane {lane}");
        }
    }

    #[test]
    fn pool_merge_is_deterministic_across_thread_counts() {
        // The merge contract the native kernels rely on: per-lane
        // buffers + lane-order merge gives one answer at any width.
        let merge = |n_threads: usize| -> Vec<u64> {
            let pool = NativePool::with_threads(n_threads);
            let out: Vec<Mutex<u64>> = (0..N_LANES).map(|_| Mutex::new(0)).collect();
            pool.run(N_LANES, |lane| {
                let mut acc = 0u64;
                for i in 0..1000u64 {
                    acc = acc
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i + lane as u64);
                }
                *out[lane].lock().unwrap() = acc;
            });
            out.into_iter().map(|m| m.into_inner().unwrap()).collect()
        };
        let a = merge(1);
        let b = merge(4);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = NativePool::with_threads(2);
        let sum = AtomicUsize::new(0);
        for _ in 0..3 {
            pool.run(16, |lane| {
                sum.fetch_add(lane + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 3 * (16 * 17) / 2);
    }

    #[test]
    fn pool_lane_panic_is_reported_after_drain() {
        let pool = NativePool::with_threads(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, |lane| {
                if lane == 3 {
                    panic!("lane 3 exploded");
                }
            });
        }));
        assert!(r.is_err());
        // The pool must still be usable after a poisoned region.
        let count = AtomicUsize::new(0);
        pool.run(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn pool_zero_lanes_is_a_noop() {
        let pool = NativePool::with_threads(1);
        pool.run(0, |_| panic!("must not run"));
    }

    #[test]
    fn try_run_reports_a_poisoned_region_without_panicking() {
        let pool = NativePool::with_threads(2);
        let r = pool.try_run(8, |lane| {
            if lane == 3 {
                panic!("lane 3 exploded");
            }
        });
        assert_eq!(r, Err(LanePanic));
        assert_eq!(pool.try_run(8, |_| {}), Ok(()));
    }

    #[test]
    fn seeded_lane_panic_fires_before_the_body_and_drains() {
        // A scripted worker panic on lane 5: the panicking lane never
        // runs its body, every other lane completes, and the pool is
        // reusable — the exact contract rollback recovery relies on.
        let scope = swfault::install(swfault::FaultPlan::with_seed(3).one_shot(
            swfault::Site::LanePanic,
            Some(5),
            0,
        ));
        let pool = NativePool::with_threads(2);
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let r = pool.try_run(8, |lane| {
            hits[lane].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(r, Err(LanePanic));
        for (lane, h) in hits.iter().enumerate() {
            let expect = if lane == 5 { 0 } else { 1 };
            assert_eq!(h.load(Ordering::Relaxed), expect, "lane {lane}");
        }
        let log = scope.finish();
        assert_eq!(log.count(swfault::Site::LanePanic), 1);
        // The one-shot is consumed by its decision index: the replayed
        // region (seq 1 on lane 5) is clean, guaranteeing a rollback
        // that retries the region makes forward progress.
        let scope2 = swfault::install(swfault::FaultPlan::with_seed(3).one_shot(
            swfault::Site::LanePanic,
            Some(5),
            0,
        ));
        assert_eq!(pool.try_run(8, |_| {}), Err(LanePanic));
        assert_eq!(pool.try_run(8, |_| {}), Ok(()));
        drop(scope2);
    }
}
