//! The lazily started persistent worker pool behind every parallel
//! phase.
//!
//! Spawning `workers - 1` OS threads *per phase* via
//! `std::thread::scope` is fine for long phases, wasteful for the many
//! short ones a full detection pass issues (one per speculative
//! peeling round, one per service drain, ...). This module amortizes
//! that cost:
//!
//! * **lifecycle** — the pool is a process-wide singleton created on
//!   the first parallel phase. It grows lazily to the largest
//!   `workers - 1` ever requested (capped at [`MAX_POOL_THREADS`]) and
//!   its threads then live for the rest of the process, parked on a
//!   condvar while idle. There is deliberately no shutdown: workers
//!   hold no resources the OS does not reclaim at exit, and a
//!   tear-down path would force every caller to prove no phase is in
//!   flight. `ExecPolicy` with `workers == 1` never touches the pool.
//! * **phases** — a phase hands the pool one `Fn(usize) + Sync` body;
//!   logical worker 0 runs on the *calling* thread and workers
//!   `1..W` are enqueued as jobs. The call returns only when every
//!   logical worker has finished (a latch), which is what makes it
//!   sound to give pool threads a raw, lifetime-erased pointer to a
//!   stack-borrowed closure.
//! * **determinism** — unchanged from the scoped version: the pool
//!   decides *where* a logical worker runs, never *what* it computes.
//!   Logical workers drain one shared atomic cursor and write result
//!   `i` into slot `i`, so any mapping of logical workers onto pool
//!   threads — including all of them running serially on one thread —
//!   produces identical bytes.
//! * **nesting / panics** — a phase waiter helps drain the shared job
//!   queue while it waits, so a phase started from inside a pool job
//!   cannot deadlock the pool; a panicking body is caught, the latch
//!   still counts down, and the payload is rethrown on the calling
//!   thread once the phase has fully drained.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Write-only telemetry handles for the pool, registered once in the
/// process-global `alid-obs` registry. Every accessor call site hoists
/// the lookup *outside* any queue-lock region: the first call registers
/// under the registry's own mutex, which must never nest inside ours.
struct PoolMetrics {
    jobs: Arc<alid_obs::Counter>,
    steals: Arc<alid_obs::Counter>,
    parks: Arc<alid_obs::Counter>,
    phases: Arc<alid_obs::Counter>,
    job_seconds: Arc<alid_obs::Histogram>,
    phase_seconds: Arc<alid_obs::Histogram>,
}

fn metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = alid_obs::global();
        r.gauge_fn(
            "alid_exec_pool_threads",
            "Persistent exec pool threads spawned so far",
            &[],
            || thread_count() as f64,
        );
        PoolMetrics {
            jobs: r.counter("alid_exec_jobs_total", "Pool-side logical worker jobs run", &[]),
            steals: r.counter(
                "alid_exec_queue_help_steals_total",
                "Own-phase jobs a waiting caller ran instead of a pool thread",
                &[],
            ),
            parks: r.counter(
                "alid_exec_parks_total",
                "Times a pool worker parked on the idle condvar",
                &[],
            ),
            phases: r.counter(
                "alid_exec_phases_total",
                "Parallel phases dispatched through the pool",
                &[],
            ),
            job_seconds: r.histogram(
                "alid_exec_job_seconds",
                "Wall time of one pool-side logical worker job",
                &[],
            ),
            phase_seconds: r.histogram(
                "alid_exec_phase_seconds",
                "Parallel phase wall time, dispatch to latch-zero",
                &[],
            ),
        }
    })
}

/// Ceiling on pool threads: far above any sane `ExecPolicy`, low
/// enough that a pathological `workers(1_000_000)` cannot exhaust OS
/// threads (excess logical workers just queue behind the cap).
const MAX_POOL_THREADS: usize = 256;

/// One queued logical worker of some phase. Kept as data (phase +
/// worker index) rather than a boxed closure so a waiter can tell
/// *whose* job it is — see [`PhaseWait`] for why that matters.
struct Job {
    phase: Arc<Phase>,
    t: usize,
}

impl Job {
    fn run(self) {
        let m = metrics();
        m.jobs.inc();
        let _job_timer = m.job_seconds.start_timer();
        // SAFETY: `PhaseWait` keeps `run_phase` from returning or
        // unwinding until `remaining` hits zero, i.e. until after
        // this dereference.
        let body = unsafe { &*self.phase.body.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(self.t))) {
            let mut slot = self.phase.panic.lock().expect("phase panic slot");
            slot.get_or_insert(payload);
        }
        self.phase.finish_one();
    }
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signals both "a job was enqueued" (wakes idle workers and
    /// helping waiters) and "a phase latch reached zero" (wakes that
    /// phase's waiter).
    signal: Condvar,
}

pub(crate) struct Pool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
    /// Lock-free mirror of `spawned` for diagnostics readers. The
    /// `alid_exec_pool_threads` gauge closure runs under the obs
    /// registry's render lock, and the spawn site (which holds the
    /// `spawned` guard) can initialise that registry via `metrics()`;
    /// reading the mutex from the gauge would order the two lock
    /// classes both ways. The atomic keeps the exposition path off the
    /// pool's mutex entirely.
    spawned_count: AtomicUsize,
}

/// Lifetime-erased pointer to a phase body. Sound to send across
/// threads because [`Pool::run_phase`] never returns (or unwinds)
/// while a job that could dereference it is outstanding.
struct BodyPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (so `&body` may be used from any
// thread) and `run_phase`'s latch guarantees it outlives every use.
unsafe impl Send for BodyPtr {}
// SAFETY: same argument as `Send` above — the pointee is `Sync` and
// outlives every use.
unsafe impl Sync for BodyPtr {}

struct Phase {
    body: BodyPtr,
    /// Pool jobs of this phase still running or queued.
    remaining: AtomicUsize,
    /// First panic payload from a pool-side logical worker.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    shared: Arc<Shared>,
}

impl Phase {
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the queue lock before notifying so the waiter cannot
            // observe `remaining > 0` and block between our decrement
            // and this wakeup.
            let _guard = self.shared.queue.lock().expect("pool queue");
            self.shared.signal.notify_all();
        }
    }
}

/// Waits for a phase's outstanding pool jobs on drop — even when the
/// calling thread's own body panics, since queued jobs hold a pointer
/// into the unwinding stack frame. Helps run queued jobs **of its own
/// phase only** while waiting, so phases started from inside pool
/// jobs make progress.
///
/// Own-phase-only helping is a correctness requirement, not an
/// optimization: the waiting thread may hold caller locks (a service
/// shard mutex around a nested sweep phase, say), and running a
/// *foreign* job here would import that job's lock acquisitions into
/// the current lock context — if the foreign job tries to take a lock
/// this very thread already holds, the process deadlocks. Own jobs
/// can never do that (the phase body is the same closure this thread
/// is already inside of, at a different index). Progress is
/// preserved: every waiting phase can drain its own queued jobs
/// itself, so no phase ever depends on another phase's waiter.
struct PhaseWait<'a>(&'a Phase);

impl Drop for PhaseWait<'_> {
    fn drop(&mut self) {
        let m = metrics();
        let shared = &self.0.shared;
        let mut queue = shared.queue.lock().expect("pool queue");
        while self.0.remaining.load(Ordering::Acquire) > 0 {
            let mine = queue
                .iter()
                .position(|job| std::ptr::eq(Arc::as_ptr(&job.phase), self.0 as *const Phase));
            // `position` and `remove` run under one continuous lock,
            // so the index cannot go stale; resolving the `Option` via
            // the wait arm (instead of unwrapping) keeps any panic from
            // ever poisoning the pool queue.
            match mine.and_then(|idx| queue.remove(idx)) {
                Some(job) => {
                    drop(queue);
                    m.steals.inc();
                    job.run();
                    queue = shared.queue.lock().expect("pool queue");
                }
                None => queue = shared.signal.wait(queue).expect("pool queue"),
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let m = metrics();
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                match queue.pop_front() {
                    Some(job) => break job,
                    None => {
                        m.parks.inc();
                        queue = shared.signal.wait(queue).expect("pool queue");
                    }
                }
            }
        };
        job.run();
    }
}

pub(crate) fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared { queue: Mutex::new(VecDeque::new()), signal: Condvar::new() }),
        spawned: Mutex::new(0),
        spawned_count: AtomicUsize::new(0),
    })
}

/// Number of persistent pool threads spawned so far in this process
/// (the `alid_exec_pool_threads` gauge; 0 until the first parallel
/// phase runs). Reads the lock-free mirror, never the spawn mutex — see
/// `Pool::spawned_count`.
fn thread_count() -> usize {
    global().spawned_count.load(Ordering::Relaxed)
}

impl Pool {
    fn ensure_threads(&self, wanted: usize) {
        let wanted = wanted.min(MAX_POOL_THREADS);
        let mut spawned = self.spawned.lock().expect("pool size");
        while *spawned < wanted {
            let shared = Arc::clone(&self.shared);
            let spawn = std::thread::Builder::new()
                .name(format!("alid-exec-{}", *spawned))
                .spawn(move || worker_loop(shared));
            if let Err(e) = spawn {
                // Release the guard before panicking so later phases
                // never see a poisoned spawn lock.
                drop(spawned);
                panic!("spawn exec pool worker: {e}");
            }
            *spawned += 1;
            self.spawned_count.store(*spawned, Ordering::Relaxed);
        }
    }

    /// Runs one parallel phase: `body(t)` for every logical worker
    /// `t in 0..workers`, with worker 0 on the calling thread and the
    /// rest on pool threads. Returns — rethrowing any worker panic —
    /// only after every logical worker has finished.
    pub(crate) fn run_phase(&self, workers: usize, body: &(dyn Fn(usize) + Sync)) {
        debug_assert!(workers >= 2, "the sequential fast path is the caller's job");
        let m = metrics();
        m.phases.inc();
        let _phase_timer = m.phase_seconds.start_timer();
        let mut sp = alid_obs::trace::span("exec.phase");
        sp.count("workers", workers as u64);
        let extra = workers - 1;
        self.ensure_threads(extra);
        // SAFETY: pure lifetime erasure on a fat reference; the latch
        // below keeps the pointee alive across every dereference.
        let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let phase = Arc::new(Phase {
            body: BodyPtr(body_static as *const _),
            remaining: AtomicUsize::new(extra),
            panic: Mutex::new(None),
            shared: Arc::clone(&self.shared),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            for t in 1..workers {
                queue.push_back(Job { phase: Arc::clone(&phase), t });
            }
        }
        self.shared.signal.notify_all();
        {
            let _wait = PhaseWait(&phase);
            body(0);
        }
        let payload = phase.panic.lock().expect("phase panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ExecPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_starts_lazily_and_persists_across_phases() {
        ExecPolicy::workers(4).map_indexed(64, |_| ());
        let after_first = super::thread_count();
        assert!(after_first >= 3, "a 4-worker phase needs >= 3 pool threads");
        for _ in 0..32 {
            ExecPolicy::workers(4).map_indexed(64, |_| ());
        }
        // Repeat phases at the same width reuse the parked workers;
        // other concurrently running tests may grow the pool, but a
        // 4-worker phase itself never needs to.
        assert!(super::thread_count() <= super::MAX_POOL_THREADS);
    }

    #[test]
    fn sequential_policy_never_touches_the_pool() {
        // Can't assert a global count of zero (other tests share the
        // pool), but the sequential path must run on this very thread.
        let here = std::thread::current().id();
        ExecPolicy::sequential().map_indexed(8, |_| {
            assert_eq!(std::thread::current().id(), here);
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            ExecPolicy::workers(3).map_indexed(30, |i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
            });
        });
        assert!(caught.is_err(), "a worker panic must reach the caller");
        // The pool is still serviceable after a panicked phase.
        let hits = AtomicUsize::new(0);
        ExecPolicy::workers(3).map_indexed(30, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn nested_phases_do_not_deadlock() {
        let outer = ExecPolicy::workers(2);
        let inner = ExecPolicy::workers(2);
        let results = outer.map_indexed(4, |i| {
            let hits = AtomicUsize::new(0);
            inner.map_indexed(16, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            i + hits.load(Ordering::Relaxed)
        });
        assert_eq!(results, vec![16, 17, 18, 19]);
    }

    /// Regression for the foreign-job deadlock: concurrent phases
    /// whose bodies hold per-index locks around *nested* phases. With
    /// the old any-job queue helping, a waiter inside phase A (holding
    /// lock i) could pop phase B's job, which tries to lock the same i
    /// on the same thread — permanent deadlock. Own-phase-only helping
    /// makes this shape safe; the test hangs (CI timeout) on
    /// regression.
    #[test]
    fn concurrent_lock_holding_phases_with_nested_phases_do_not_deadlock() {
        use std::sync::Mutex;
        let locks: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        let locks = &locks;
        for _round in 0..25 {
            std::thread::scope(|scope| {
                for _caller in 0..3 {
                    scope.spawn(move || {
                        let results = ExecPolicy::workers(3).map_indexed(4, |i| {
                            let mut guard = locks[i].lock().expect("shard lock");
                            // Nested phase while holding the lock —
                            // the service drain/sweep pattern.
                            let hits = AtomicUsize::new(0);
                            ExecPolicy::workers(2).map_indexed(8, |_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                            *guard += 1;
                            hits.load(Ordering::Relaxed)
                        });
                        assert_eq!(results, vec![8, 8, 8, 8]);
                    });
                }
            });
        }
        let total: u64 = locks.iter().map(|l| *l.lock().expect("shard lock")).sum();
        assert_eq!(total, 25 * 3 * 4);
    }
}
