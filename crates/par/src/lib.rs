//! # alba-par
//!
//! A deterministic, fixed-size worker pool built for the serve
//! pipeline's parallel shard runtime.
//!
//! The design goal is *byte-identical replay under real threads*: the
//! pool may change wall-clock timing, but it must never be able to
//! change any output an equal-seeded run serialises. Three rules
//! enforce that, and everything else here is plumbing:
//!
//! 1. **Deterministic assignment.** An epoch's jobs are numbered by
//!    their position (`slot`), and slot `s` always runs on worker
//!    `s % n_workers`. No work stealing, no load balancing — placement
//!    is a pure function of `(slot, n_workers)`, never of timing.
//! 2. **Epoch barrier.** [`Pool::run_epoch`] submits one batch of jobs
//!    and blocks until *all* of them complete before returning. No job
//!    from epoch `e+1` can overlap epoch `e`, so cross-epoch
//!    interleavings cannot exist.
//! 3. **Ordered merge.** Results are committed into a slot-indexed
//!    buffer and returned in slot order, regardless of the order
//!    completions arrive in. Callers never observe arrival order.
//!
//! Worker threads run every job under `catch_unwind`, so a panicking
//! job yields an `Err(payload)` in its slot instead of poisoning the
//! pool; the caller decides what a lost job costs. A worker whose
//! thread has died (job queue disconnected) is respawned transparently
//! and the job is resubmitted — the pool survives anything short of a
//! process abort.
//!
//! [`map`] is the one-shot form of the same contract for setup and
//! training fan-outs (campaign generation, extraction, forest fit,
//! experiment drivers, grid lanes); nested inside a pool or `map`
//! worker it runs inline, so parallelism stays at one level.
//! [`threads_spawned`] counts every OS thread this crate starts.
//!
//! Observability: per-worker `par_worker_jobs_total` /
//! `par_worker_busy_ns_total` counters and a `par_epoch_ns` histogram
//! (epoch barrier wall time, on the registry clock) are recorded when
//! the pool is built with an enabled [`Obs`]. Counters are
//! order-independent merged totals, so recording them from worker
//! threads cannot perturb replay identity; *events* are never emitted
//! off the caller's thread.

#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use alba_obs::Obs;

/// OS threads spawned by this crate since process start.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on every thread this crate runs work on (pool and `map`
    /// workers): a `map` called there runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of OS threads this crate has spawned in this process: pool
/// workers (including respawns) plus every `map` worker.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Cores available to this process (1 when unknown) — the worker count
/// callers pass to [`map`] for a full-machine fan-out.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Applies `f` to every item on up to `n_workers` scoped threads and
/// returns the results in item order.
///
/// Item `i` runs on worker `i % n` (the [`Pool::run_epoch`] rule), each
/// worker taking its items in order. The call runs inline on the caller
/// when fewer than two workers would be used, or when the caller is
/// itself a pool or `map` worker. A panicking item is re-raised on the
/// caller after every worker has joined.
pub fn map<T, R, F>(n_workers: usize, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let len = items.len();
    let n = n_workers.min(len);
    if n <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let mut lanes: Vec<Vec<T>> = (0..n).map(|_| Vec::with_capacity(len.div_ceil(n))).collect();
    for (w, item) in (0..n).cycle().zip(items) {
        if let Some(lane) = lanes.get_mut(w) {
            lane.push(item);
        }
    }
    THREADS_SPAWNED.fetch_add(n as u64, Ordering::Relaxed);
    let f = &f;
    let joined: Vec<std::thread::Result<Vec<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    lane.into_iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut outs = Vec::with_capacity(n);
    for lane in joined {
        match lane {
            Ok(results) => outs.push(results.into_iter()),
            Err(payload) => resume_unwind(payload),
        }
    }
    // Ordered merge: round k takes the k-th result of every lane, i.e.
    // items k*n .. k*n+n; lanes only shorten towards the end.
    let mut merged = Vec::with_capacity(len);
    'rounds: loop {
        for lane in &mut outs {
            match lane.next() {
                Some(r) => merged.push(r),
                None => break 'rounds,
            }
        }
    }
    merged
}

/// What a worker receives on its private job queue.
enum Msg<J> {
    /// One job to run: `(epoch, slot, payload)`.
    Job(u64, usize, J),
    /// Drain and exit.
    Shutdown,
}

/// What a worker sends back on the shared completion queue.
struct Completion<R> {
    epoch: u64,
    slot: usize,
    outcome: std::thread::Result<R>,
}

struct Worker<J> {
    tx: Sender<Msg<J>>,
    handle: Option<JoinHandle<()>>,
}

type JobFn<J, R> = dyn Fn(usize, J) -> R + Send + Sync;

/// A fixed-size worker pool with deterministic slot→worker assignment
/// and an epoch-barrier ordered merge (see the crate docs).
///
/// `J` is the job payload moved *into* a worker; `R` is the result
/// moved back. Both cross thread boundaries, hence `Send + 'static`.
pub struct Pool<J: Send + 'static, R: Send + 'static> {
    workers: Vec<Worker<J>>,
    job_fn: Arc<JobFn<J, R>>,
    results_rx: Receiver<Completion<R>>,
    /// Kept so `results_rx.recv()` can never disconnect, and cloned
    /// into respawned workers.
    results_tx: Sender<Completion<R>>,
    obs: Obs,
    epoch: u64,
    respawns: u64,
}

impl<J: Send + 'static, R: Send + 'static> Pool<J, R> {
    /// Spawns `n_workers` threads running `job_fn`.
    ///
    /// # Panics
    /// Panics when `n_workers == 0` or a worker thread cannot be
    /// spawned (process resource exhaustion — not a recoverable state
    /// for a fixed-size pool).
    pub fn new<F>(n_workers: usize, obs: Obs, job_fn: F) -> Self
    where
        F: Fn(usize, J) -> R + Send + Sync + 'static,
    {
        assert!(n_workers >= 1, "a pool needs at least one worker");
        let (results_tx, results_rx) = channel();
        let job_fn: Arc<JobFn<J, R>> = Arc::new(job_fn);
        let mut pool = Self {
            workers: Vec::with_capacity(n_workers),
            job_fn,
            results_rx,
            results_tx,
            obs,
            epoch: 0,
            respawns: 0,
        };
        for w in 0..n_workers {
            let worker = pool.spawn_worker(w);
            pool.workers.push(worker);
        }
        pool
    }

    fn spawn_worker(&self, w: usize) -> Worker<J> {
        let (tx, rx) = channel::<Msg<J>>();
        let job_fn = Arc::clone(&self.job_fn);
        let results = self.results_tx.clone();
        let obs = self.obs.clone();
        THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("alba-par-w{w}"))
            .spawn(move || worker_loop(w, rx, results, job_fn, obs))
            // alba-lint: allow(reachable-panic) reason="spawn fails only on resource exhaustion; the supervisor dies loudly"
            .expect("spawn pool worker thread");
        Worker { tx, handle: Some(handle) }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Lifetime count of workers respawned after their thread died.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Runs one epoch: submits `jobs` (slot `s` to worker
    /// `s % n_workers`), blocks until every job completes, and returns
    /// the outcomes **in slot order**. A job that panicked comes back
    /// as `Err(payload)` in its slot; all other slots are unaffected.
    pub fn run_epoch(&mut self, jobs: Vec<J>) -> Vec<std::thread::Result<R>> {
        self.epoch += 1;
        let epoch = self.epoch;
        let n = jobs.len();
        for (slot, job) in jobs.into_iter().enumerate() {
            let w = slot % self.workers.len();
            let mut msg = Msg::Job(epoch, slot, job);
            // A disconnected queue means the worker thread is gone
            // (its send on the results channel failed, or it was
            // killed externally): respawn and resubmit. `SendError`
            // returns the message, so nothing is lost.
            loop {
                // alba-lint: allow(reachable-panic) reason="w = slot % workers.len() is always in range"
                match self.workers[w].tx.send(msg) {
                    Ok(()) => break,
                    Err(SendError(back)) => {
                        self.respawn(w);
                        msg = back;
                    }
                }
            }
        }
        // Epoch barrier + ordered merge: collect exactly `n`
        // completions for this epoch into a slot-indexed buffer, so the
        // returned order is the submission order, not arrival order.
        let t0 = self.obs.now_ns();
        let mut out: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        let mut got = 0usize;
        while got < n {
            // Cannot disconnect: the pool holds `results_tx`.
            let Ok(c) = self.results_rx.recv() else { break };
            // alba-lint: allow(reachable-panic) reason="c.slot >= n is ruled out by this same condition"
            if c.epoch != epoch || c.slot >= n || out[c.slot].is_some() {
                continue; // stale or duplicate — defensive, unreachable by protocol
            }
            // alba-lint: allow(reachable-panic) reason="slot bound checked in the condition above"
            out[c.slot] = Some(c.outcome);
            got += 1;
        }
        self.obs.histogram("par_epoch_ns", &[]).record(self.obs.now_ns().saturating_sub(t0));
        out.into_iter()
            .map(|o| {
                o.unwrap_or_else(|| Err(Box::new("worker lost") as Box<dyn std::any::Any + Send>))
            })
            .collect()
    }

    fn respawn(&mut self, w: usize) {
        // alba-lint: allow(reachable-panic) reason="w comes from run_epoch's modulo over workers"
        if let Some(handle) = self.workers[w].handle.take() {
            let _ = handle.join();
        }
        // alba-lint: allow(reachable-panic) reason="w comes from run_epoch's modulo over workers"
        self.workers[w] = self.spawn_worker(w);
        self.respawns += 1;
        self.obs.counter("par_worker_respawns_total", &[]).inc();
    }
}

impl<J: Send + 'static, R: Send + 'static> Drop for Pool<J, R> {
    fn drop(&mut self) {
        // Deterministic shutdown: signal then join in worker-index
        // order (never in completion order).
        for w in &self.workers {
            let _ = w.tx.send(Msg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop<J, R>(
    w: usize,
    rx: Receiver<Msg<J>>,
    results: Sender<Completion<R>>,
    job_fn: Arc<JobFn<J, R>>,
    obs: Obs,
) {
    IN_WORKER.with(|flag| flag.set(true));
    let label = w.to_string();
    let jobs_c = obs.counter("par_worker_jobs_total", &[("worker", &label)]);
    let busy_c = obs.counter("par_worker_busy_ns_total", &[("worker", &label)]);
    while let Ok(msg) = rx.recv() {
        let (epoch, slot, job) = match msg {
            Msg::Job(epoch, slot, job) => (epoch, slot, job),
            Msg::Shutdown => break,
        };
        let t0 = obs.now_ns();
        let outcome = catch_unwind(AssertUnwindSafe(|| job_fn(w, job)));
        busy_c.add(obs.now_ns().saturating_sub(t0));
        jobs_c.inc();
        if results.send(Completion { epoch, slot, outcome }).is_err() {
            break; // pool dropped mid-epoch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The core determinism contract: results come back in slot order
    /// at every worker count, even when early slots run slowest — for
    /// the pool and for `map` alike.
    #[test]
    fn merge_order_is_slot_order_at_any_worker_count() {
        let reference: Vec<usize> = (0..17).map(|i| i * i).collect();
        // Early slots sleep longest: arrival order is roughly the
        // reverse of slot order.
        let job = |i: usize| {
            std::thread::sleep(std::time::Duration::from_millis((17 - i as u64).min(8)));
            i * i
        };
        for n_workers in [1, 2, 4, 8] {
            let mut pool: Pool<usize, usize> =
                Pool::new(n_workers, Obs::disabled(), move |_w, i: usize| job(i));
            let got: Vec<usize> = pool
                .run_epoch((0..17).collect())
                .into_iter()
                .map(|r| r.expect("no job panicked"))
                .collect();
            assert_eq!(got, reference, "pool order broke at {n_workers} workers");
            assert_eq!(map(n_workers, 0..17, job), reference, "map order broke at {n_workers}");
        }
    }

    /// A panicking `map` item reaches the caller with its own payload,
    /// only after the other workers finished; the next `map` works.
    #[test]
    fn map_reraises_a_panic_after_every_worker_joins() {
        let panicking = std::sync::atomic::AtomicBool::new(false);
        let finished = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(2, 0..8usize, |i| {
                if i == 1 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("boom");
                }
                if i % 2 == 0 {
                    // Worker 0 finishes its items only after worker 1
                    // has started to panic.
                    while !panicking.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(finished.load(Ordering::SeqCst), 4, "worker 0 ran all its items first");
        assert_eq!(map(2, 0..4usize, |i| i + 1), vec![1, 2, 3, 4]);
    }

    /// A panicking job surfaces as Err in its own slot; other slots
    /// complete, and the pool keeps working across epochs.
    #[test]
    fn panics_are_contained_per_slot() {
        let mut pool: Pool<usize, usize> = Pool::new(2, Obs::disabled(), |_w, i: usize| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
        let out = pool.run_epoch((0..6).collect());
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.is_err(), i == 3, "only slot 3 may fail");
        }
        let again = pool.run_epoch(vec![10, 11]);
        assert_eq!(again.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(), vec![10, 11]);
        assert_eq!(pool.respawns(), 0, "a caught panic must not cost a thread");
    }

    /// Slot→worker placement is `slot % n_workers`, observable through
    /// the worker index handed to the job fn.
    #[test]
    fn assignment_is_modular_and_static() {
        let mut pool: Pool<usize, (usize, usize)> =
            Pool::new(3, Obs::disabled(), |w, slot: usize| (w, slot));
        for _epoch in 0..3 {
            let out = pool.run_epoch((0..10).collect());
            for (slot, r) in out.into_iter().enumerate() {
                let (w, s) = r.unwrap();
                assert_eq!(s, slot);
                assert_eq!(w, slot % 3, "placement must be slot % n_workers");
            }
        }
    }

    /// Epochs are barriers: every job of epoch e finishes before
    /// run_epoch returns, so a shared counter settles exactly.
    #[test]
    fn epoch_barrier_waits_for_all_jobs() {
        let total = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&total);
        let mut pool: Pool<u64, ()> = Pool::new(4, Obs::disabled(), move |_w, v: u64| {
            t.fetch_add(v, Ordering::SeqCst);
        });
        for round in 1..=5u64 {
            pool.run_epoch((0..100).collect());
            assert_eq!(total.load(Ordering::SeqCst), round * 4950);
        }
    }

    /// Per-worker counters land in the obs registry; the epoch
    /// histogram records once per epoch.
    #[test]
    fn pool_records_worker_counters() {
        let obs = Obs::wall();
        let mut pool: Pool<usize, usize> = Pool::new(2, obs.clone(), |_w, i| i);
        pool.run_epoch((0..5).collect());
        pool.run_epoch((0..5).collect());
        // Slots 0,2,4 on worker 0; slots 1,3 on worker 1; twice.
        assert_eq!(obs.counter("par_worker_jobs_total", &[("worker", "0")]).get(), 6);
        assert_eq!(obs.counter("par_worker_jobs_total", &[("worker", "1")]).get(), 4);
        let snap = obs.histogram("par_epoch_ns", &[]).snapshot().unwrap();
        assert_eq!(snap.count, 2);
    }

    /// An empty epoch is legal and returns immediately.
    #[test]
    fn empty_epoch_is_a_no_op() {
        let mut pool: Pool<usize, usize> = Pool::new(2, Obs::disabled(), |_w, i| i);
        assert!(pool.run_epoch(Vec::new()).is_empty());
    }
}
