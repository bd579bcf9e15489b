//! Persistent worker pool with a shared injector queue and dynamic chunk
//! claiming — the scheduler every Ecco multi-block pipeline runs on.
//!
//! The scheduler this crate replaced spawned scoped threads per call
//! with one static shard per worker. That is fine for one huge
//! tensor, but it pays the full thread-spawn cost on every small tensor
//! and serializes concurrent multi-tensor submissions — exactly the
//! many-users serving regime the paper's hardware decoder targets (many
//! independent blocks in flight). This crate replaces it with:
//!
//! * **long-lived workers** started once (lazily, for the global pool)
//!   and woken through a Mutex+Condvar injector queue — no per-call
//!   spawn,
//! * **dynamic chunk claiming**: a submitted job carries an atomic
//!   cursor over its index space; idle executors (the workers *and* the
//!   submitting thread) repeatedly claim the next chunk, so load
//!   balances like a work-stealing scheduler without per-item overhead,
//! * **a sequential fast path**: jobs that fit in one chunk (or a pool
//!   with one executor) run inline on the caller — tiny tensors never
//!   touch the queue,
//! * **panic hygiene**: a panicking chunk poisons only its own job —
//!   [`Pool::run`] returns [`JobPanic`] (first payload preserved), the
//!   workers survive, and later jobs run normally.
//!
//! Determinism: chunk *claiming* order is racy, but results are indexed
//! by chunk, so any order-preserving reassembly (see [`Pool::run_map`])
//! is bit-identical to the sequential loop for per-item computations —
//! regardless of thread count or chunk size. The codec's differential
//! proptests pin this across pools of 1/2/4/8 executors and ragged
//! chunk boundaries.
//!
//! Sizing: the global pool reads `ECCO_THREADS`, then the legacy
//! `RAYON_NUM_THREADS`, then `available_parallelism`. An explicit
//! [`PoolBuilder`] pool can be injected for a scope with [`with_pool`]
//! (thread-local), which is how tests pin thread counts and how servers
//! isolate request classes.
//!
//! # Safety
//!
//! Jobs borrow the caller's stack (the task closure and everything it
//! captures), while workers are `'static` threads — the one place this
//! workspace needs `unsafe`. The lifetime erasure is sound because of a
//! completion barrier: [`Pool::run`] returns only after every claimed
//! chunk has finished executing, and a chunk is only ever claimed
//! together with a `pending` accounting slot, so no worker can touch the
//! erased closure after `run` returns (workers that still hold the job
//! handle afterwards see an exhausted cursor and never dereference).
//! All `unsafe` in the workspace is confined to this module and the
//! `ecco-container` mmap source.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// Oversubscription factor of the default chunk policy: jobs are split
/// into about this many chunks per executor, so a slow chunk is
/// rebalanced instead of stalling the whole job.
pub const CHUNKS_PER_EXECUTOR: usize = 4;

/// A panic captured from a job's task. Holds the first panic payload so
/// callers can re-raise it ([`JobPanic::resume`]) or map it to an error.
pub struct JobPanic {
    payload: Box<dyn Any + Send>,
}

impl JobPanic {
    /// The captured panic payload (what `std::panic::catch_unwind`
    /// returned for the first panicking chunk).
    pub fn into_payload(self) -> Box<dyn Any + Send> {
        self.payload
    }

    /// Re-raises the captured panic on the current thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobPanic(..)")
    }
}

/// Lifetime-erased borrow of a job's task closure. The `'static` is a
/// lie told once, in [`Pool::run`]: the reference is only called between
/// job creation and the completion barrier, a window the real borrow
/// provably outlives (see the module docs).
type ErasedTask = &'static (dyn Fn(usize, usize) + Sync);

/// Enough of the submitting [`Pool`] to rebuild a handle on a worker
/// thread: chunks execute with the job's own pool installed as current,
/// so nested parallel calls inside a task target the same pool the job
/// was submitted to (not the global one). Held weakly — a `Job` sits in
/// the `Shared` queue, so a strong reference back to the pool state
/// would form a leakable cycle and keep the pool alive against the last
/// user handle's drop.
struct PoolSeed {
    guard: Weak<Guard>,
    executors: usize,
    chunk_override: Option<usize>,
}

impl PoolSeed {
    /// Rebuilds a [`Pool`] handle, if any user handle is still alive.
    /// During `Pool::run` the submitter's handle is borrowed, so this
    /// always succeeds while a chunk of that job is executing.
    fn upgrade(&self) -> Option<Pool> {
        self.guard.upgrade().map(|guard| Pool {
            shared: Arc::clone(&guard.shared),
            _guard: guard,
            executors: self.executors,
            chunk_override: self.chunk_override,
        })
    }
}

/// One submitted parallel-for over `0..len`, chunk-claimed by executors.
struct Job {
    task: ErasedTask,
    len: usize,
    chunk: usize,
    /// The submitting pool, re-installed as current around each chunk.
    seed: PoolSeed,
    /// Next unclaimed index; claims advance it by `chunk`.
    cursor: AtomicUsize,
    /// Chunks claimed-or-unclaimed but not yet finished. The submitting
    /// thread waits for this to reach zero before returning.
    pending: AtomicUsize,
    /// Set when any chunk's task panicked.
    panicked: AtomicBool,
    /// First panic payload, for re-raising on the submitting thread.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion signal (guards nothing; pairs with `pending`).
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    /// Claims the next chunk, returning its index range.
    fn claim(&self) -> Option<(usize, usize)> {
        // `fetch_add` may overshoot `len` on concurrent exhausted claims;
        // that is harmless (no chunk is associated with lo >= len).
        let lo = self.cursor.fetch_add(self.chunk, Ordering::SeqCst);
        (lo < self.len).then(|| (lo, (lo + self.chunk).min(self.len)))
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::SeqCst) >= self.len
    }

    /// Runs one claimed chunk, capturing panics, and signals completion
    /// when it was the last one. The chunk runs with the submitting pool
    /// installed as the thread's current pool, so nested parallel calls
    /// inside the task stay inside the same pool partition.
    ///
    /// `pending` still counts this chunk, so the submitting thread
    /// cannot have returned yet and the erased task borrow is alive.
    fn execute(&self, lo: usize, hi: usize) {
        let task = self.task;
        let result = catch_unwind(AssertUnwindSafe(|| match self.seed.upgrade() {
            Some(pool) => with_pool(&pool, || task(lo, hi)),
            None => task(lo, hi),
        }));
        if let Err(p) = result {
            self.panicked.store(true, Ordering::SeqCst);
            let mut slot = self.payload.lock().unwrap();
            slot.get_or_insert(p);
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last chunk: wake the submitting thread. Taking the lock
            // orders the notify against its `pending` re-check.
            let _g = self.done_lock.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every chunk has finished executing.
    fn wait_done(&self) {
        let mut g = self.done_lock.lock().unwrap();
        while self.pending.load(Ordering::SeqCst) != 0 {
            g = self.done_cv.wait(g).unwrap();
        }
    }
}

/// State shared by the pool handle(s) and the worker threads.
struct Shared {
    /// FIFO injector: jobs are drained front-first; exhausted jobs are
    /// dropped during the scan.
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Worker body: wait for a job with unclaimed chunks, then claim and
    /// execute chunks until it is exhausted.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    while q.front().is_some_and(|j| j.exhausted()) {
                        q.pop_front();
                    }
                    if let Some(j) = q.front() {
                        break Arc::clone(j);
                    }
                    q = self.work_cv.wait(q).unwrap();
                }
            };
            while let Some((lo, hi)) = job.claim() {
                job.execute(lo, hi);
            }
        }
    }
}

/// Joins the workers when the last [`Pool`] handle is dropped.
struct Guard {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        // The flag is set under the queue lock: a worker checks it under
        // that lock and then waits, so setting it unlocked could land
        // between the check and the wait, lose the notify below, and
        // leave the join waiting on a sleeping worker forever.
        {
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent worker pool. Cheap to clone (a handle); workers shut
/// down when the last handle is dropped. See the module docs for the
/// scheduling model.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
    _guard: Arc<Guard>,
    executors: usize,
    chunk_override: Option<usize>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("executors", &self.executors)
            .field("chunk_override", &self.chunk_override)
            .finish()
    }
}

/// Builds a [`Pool`] with explicit sizing (tests, benches, servers that
/// partition cores between request classes).
#[derive(Clone, Debug, Default)]
pub struct PoolBuilder {
    threads: Option<usize>,
    chunk: Option<usize>,
}

impl PoolBuilder {
    /// Starts from the defaults (environment-sized, policy chunking).
    pub fn new() -> PoolBuilder {
        PoolBuilder::default()
    }

    /// Total executors the pool runs work on, **including** the
    /// submitting thread: `threads(n)` spawns `n - 1` workers, and
    /// `threads(1)` spawns none (every job runs inline on the caller —
    /// the sequential pin).
    pub fn threads(mut self, n: usize) -> PoolBuilder {
        self.threads = Some(n.max(1));
        self
    }

    /// Pins every job's chunk size (overrides the dynamic policy) —
    /// used by the differential tests to force ragged chunk boundaries.
    pub fn chunk(mut self, items: usize) -> PoolBuilder {
        self.chunk = Some(items.max(1));
        self
    }

    /// Sizes the pool from the environment (`ECCO_THREADS`, then
    /// `RAYON_NUM_THREADS`, then `available_parallelism`), as the global
    /// pool does.
    pub fn from_env(mut self) -> PoolBuilder {
        self.threads = Some(threads_from_env());
        self
    }

    /// Starts the workers and returns the pool handle.
    pub fn build(self) -> Pool {
        let executors = self.threads.unwrap_or_else(threads_from_env).max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..executors)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ecco-pool-{i}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            _guard: Arc::new(Guard {
                shared: Arc::clone(&shared),
                workers: Mutex::new(workers),
            }),
            shared,
            executors,
            chunk_override: self.chunk,
        }
    }
}

/// Pool size from the environment: `ECCO_THREADS` (this workspace's
/// knob), then `RAYON_NUM_THREADS` (honoured for continuity with the
/// scoped-thread stub), then `available_parallelism`. Values are
/// trimmed before parsing — `ECCO_THREADS="4\n"` from a shell command
/// substitution must not silently fall through to
/// `available_parallelism`. Zero or unparsable values fall through.
pub fn threads_from_env() -> usize {
    for var in ["ECCO_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Quick-mode flag from the environment: `ECCO_QUICK` shrinks bench
/// traces and replay loops to smoke-test size. The flag is **parsed**,
/// not just probed — `ECCO_QUICK=0`, an empty value, or an unset
/// variable all mean a full run, anything else (after trimming) enables
/// quick mode. Every bench and example reading `ECCO_QUICK` goes through
/// this one parser, so `ECCO_QUICK=0 cargo bench …` runs the full trace
/// instead of silently shrinking it.
pub fn quick_from_env() -> bool {
    match std::env::var("ECCO_QUICK") {
        Ok(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
        Err(_) => false,
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

std::thread_local! {
    static CURRENT: std::cell::RefCell<Vec<Pool>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with `pool` installed as the current pool for this thread —
/// every pool-backed primitive called inside submits to it instead of
/// the global pool.
/// Nests; the previous binding is restored on exit (including on
/// unwind).
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.borrow_mut().pop());
        }
    }
    CURRENT.with(|c| c.borrow_mut().push(pool.clone()));
    let _restore = Restore;
    f()
}

impl Pool {
    /// Starts building an explicit pool.
    pub fn builder() -> PoolBuilder {
        PoolBuilder::new()
    }

    /// The process-wide pool, started on first use and sized by
    /// [`threads_from_env`]. Never shut down.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| PoolBuilder::new().build())
    }

    /// The pool the current thread should submit to: the innermost
    /// [`with_pool`] binding, or the global pool.
    pub fn current() -> Pool {
        CURRENT
            .with(|c| c.borrow().last().cloned())
            .unwrap_or_else(|| Pool::global().clone())
    }

    /// Total executors: the worker threads plus the submitting thread
    /// (which always participates in its own jobs).
    pub fn executors(&self) -> usize {
        self.executors
    }

    /// The builder's pinned chunk size, if any.
    pub fn chunk_override(&self) -> Option<usize> {
        self.chunk_override
    }

    /// Default chunk size for a `len`-item job: the pinned override, or
    /// about [`CHUNKS_PER_EXECUTOR`] chunks per executor (at least one
    /// item).
    pub fn chunk_for(&self, len: usize) -> usize {
        self.chunk_override
            .unwrap_or_else(|| len.div_ceil(self.executors * CHUNKS_PER_EXECUTOR).max(1))
    }

    /// Runs `task(lo, hi)` over every `chunk`-sized range of `0..len`
    /// across the pool, returning when all chunks have finished.
    ///
    /// The submitting thread claims chunks alongside the workers, so a
    /// pool is never idle-deadlocked and `threads(1)` degenerates to the
    /// sequential loop. Jobs that fit in one chunk (and every job on a
    /// one-executor pool) run inline without touching the queue — the
    /// small-tensor fast path.
    ///
    /// # Errors
    ///
    /// If any chunk's task panics, the panic is captured, the remaining
    /// chunks still run (each failing or succeeding independently), and
    /// the first payload is returned as [`JobPanic`]. The pool survives.
    pub fn run(
        &self,
        len: usize,
        chunk: usize,
        task: impl Fn(usize, usize) + Sync,
    ) -> Result<(), JobPanic> {
        if len == 0 {
            return Ok(());
        }
        let chunk = chunk.max(1);
        let n_chunks = len.div_ceil(chunk);
        if self.executors == 1 || n_chunks == 1 {
            // Sequential fast path: no queue, no wake-up — but the same
            // chunk granularity, current-pool binding and panic contract
            // as the pooled path (each chunk is caught independently, so
            // a panicking chunk does not stop the remaining ones).
            return with_pool(self, || {
                let mut first_panic: Option<Box<dyn Any + Send>> = None;
                for lo in (0..len).step_by(chunk) {
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| task(lo, (lo + chunk).min(len))))
                    {
                        first_panic.get_or_insert(payload);
                    }
                }
                match first_panic {
                    Some(payload) => Err(JobPanic { payload }),
                    None => Ok(()),
                }
            });
        }

        let tref: &(dyn Fn(usize, usize) + Sync) = &task;
        #[allow(unsafe_code)]
        // SAFETY: lifetime erasure of the task borrow — the one unsafe
        // line in the scheduler. `run` does not return before
        // `wait_done` observes every chunk finished, `Job::execute` is
        // the only caller of the erased reference, and each execution is
        // accounted in `pending` before the cursor hands out its chunk;
        // so the real borrow strictly outlives every call. Workers that
        // still hold the job handle afterwards see an exhausted cursor
        // and never call the task.
        let task: ErasedTask =
            unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), ErasedTask>(tref) };
        let job = Arc::new(Job {
            task,
            len,
            chunk,
            seed: PoolSeed {
                guard: Arc::downgrade(&self._guard),
                executors: self.executors,
                chunk_override: self.chunk_override,
            },
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_chunks),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.push_back(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();

        // Participate until the cursor is exhausted, then wait for the
        // chunks other executors claimed.
        while let Some((lo, hi)) = job.claim() {
            job.execute(lo, hi);
        }
        job.wait_done();

        if job.panicked.load(Ordering::SeqCst) {
            let payload = job
                .payload
                .lock()
                .unwrap()
                .take()
                .unwrap_or_else(|| Box::new("pool job panicked"));
            Err(JobPanic { payload })
        } else {
            Ok(())
        }
    }

    /// Order-preserving map over chunks: runs `f(lo, hi)` for every
    /// `chunk`-sized range of `0..len` and returns the per-chunk results
    /// **in chunk order** — the reassembly primitive behind every
    /// deterministic pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the first chunk panic as [`JobPanic`] (all results are
    /// discarded; see [`Pool::run`]).
    pub fn run_map<R, F>(&self, len: usize, chunk: usize, f: F) -> Result<Vec<R>, JobPanic>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if len == 0 {
            return Ok(Vec::new());
        }
        let chunk = chunk.max(1);
        let n_chunks = len.div_ceil(chunk);
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        self.run(len, chunk, |lo, hi| {
            let r = f(lo, hi);
            *slots[lo / chunk].lock().unwrap() = Some(r);
        })?;
        Ok(slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("chunk completed"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_map_preserves_order_any_pool_shape() {
        for threads in [1, 2, 4, 8] {
            for chunk in [1, 3, 7, 64, 1000] {
                let pool = Pool::builder().threads(threads).build();
                let parts = pool
                    .run_map(257, chunk, |lo, hi| {
                        (lo..hi).map(|i| i * i).collect::<Vec<_>>()
                    })
                    .unwrap();
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                let want: Vec<usize> = (0..257).map(|i| i * i).collect();
                assert_eq!(flat, want, "threads {threads} chunk {chunk}");
            }
        }
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let pool = Pool::builder().threads(4).build();
        let hits: Vec<AtomicU64> = (0..1001).map(|_| AtomicU64::new(0)).collect();
        pool.run(1001, 13, |lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn panic_poisons_only_its_job_and_pool_survives() {
        let pool = Pool::builder().threads(4).build();
        let err = pool
            .run(100, 5, |lo, _| {
                if lo == 45 {
                    panic!("injected chunk failure");
                }
            })
            .unwrap_err();
        let msg = err.into_payload();
        let text = msg
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(text.contains("injected"), "payload preserved: {text}");

        // The pool is fully usable afterwards — workers survived.
        let sum: usize = pool
            .run_map(64, 4, |lo, hi| (lo..hi).sum::<usize>())
            .unwrap()
            .into_iter()
            .sum();
        assert_eq!(sum, (0..64).sum::<usize>());
    }

    #[test]
    fn inline_fast_path_panics_are_captured_too() {
        let pool = Pool::builder().threads(1).build();
        assert!(pool.run(10, 100, |_, _| panic!("inline")).is_err());
        assert!(pool.run(10, 100, |_, _| ()).is_ok());

        // The panic contract must not depend on pool size: remaining
        // chunks still run after a panicking one, inline as pooled.
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let err = pool
            .run(100, 5, |lo, hi| {
                if lo == 10 {
                    panic!("inline chunk failure");
                }
                for h in &hits[lo..hi] {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            })
            .unwrap_err();
        drop(err);
        for (i, h) in hits.iter().enumerate() {
            let want = if (10..15).contains(&i) { 0 } else { 1 };
            assert_eq!(h.load(Ordering::SeqCst), want, "index {i}");
        }
    }

    #[test]
    fn with_pool_overrides_current_and_restores() {
        let pool = Pool::builder().threads(3).build();
        let outer = Pool::current().executors();
        let inner = with_pool(&pool, || Pool::current().executors());
        assert_eq!(inner, 3);
        assert_eq!(Pool::current().executors(), outer);
    }

    #[test]
    fn nested_jobs_complete_on_the_same_pool() {
        // A chunk that submits its own job must not deadlock (the inner
        // caller participates in the inner job itself), and the nested
        // `Pool::current()` must resolve to the pool the outer job was
        // submitted to — on worker threads too, not just the submitter —
        // so `with_pool` partitions are not silently escaped.
        let pool = Pool::builder().threads(2).chunk(3).build();
        let outer = pool
            .run_map(8, 1, |lo, _| {
                let p = Pool::current();
                assert_eq!(p.executors(), 2, "chunk escaped its pool");
                assert_eq!(p.chunk_override(), Some(3));
                p.run_map(16, 2, |a, b| b - a)
                    .map(|v| (lo, v.len()))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(outer.len(), 8);
    }

    #[test]
    fn env_sizing_parses() {
        // Can't mutate the global pool here (other tests share it);
        // exercise the parser through the builder instead. The previous
        // values are restored so a CI leg that pins ECCO_THREADS for the
        // whole process is not silently un-pinned for later tests.
        let prev_ecco = std::env::var("ECCO_THREADS").ok();
        let prev_rayon = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("ECCO_THREADS", "3");
        assert_eq!(threads_from_env(), 3);
        let p = PoolBuilder::new().from_env().build();
        assert_eq!(p.executors(), 3);
        // Shell command substitution (`ECCO_THREADS="$(nproc)"`) leaves a
        // trailing newline; padded values must parse, not fall through.
        std::env::set_var("ECCO_THREADS", "4\n");
        assert_eq!(threads_from_env(), 4);
        std::env::set_var("ECCO_THREADS", "  5  ");
        assert_eq!(threads_from_env(), 5);
        std::env::set_var("ECCO_THREADS", "0");
        std::env::set_var("RAYON_NUM_THREADS", "2");
        assert_eq!(threads_from_env(), 2);
        std::env::set_var("RAYON_NUM_THREADS", "\t2 ");
        assert_eq!(threads_from_env(), 2);
        std::env::set_var("RAYON_NUM_THREADS", "not-a-number");
        assert!(threads_from_env() >= 1); // falls through, never panics
        std::env::remove_var("RAYON_NUM_THREADS");
        std::env::remove_var("ECCO_THREADS");
        assert!(threads_from_env() >= 1);
        if let Some(v) = prev_ecco {
            std::env::set_var("ECCO_THREADS", v);
        }
        if let Some(v) = prev_rayon {
            std::env::set_var("RAYON_NUM_THREADS", v);
        }
    }

    #[test]
    fn quick_mode_parses_the_value() {
        // `ECCO_QUICK=0` (and "" and unset) must mean a FULL run — the
        // old `is_ok()` probe treated any set value as quick mode and
        // silently shrank `ECCO_QUICK=0` traces. Previous value restored
        // for the same reason as `env_sizing_parses`.
        let prev = std::env::var("ECCO_QUICK").ok();
        std::env::set_var("ECCO_QUICK", "1");
        assert!(quick_from_env());
        std::env::set_var("ECCO_QUICK", "yes");
        assert!(quick_from_env());
        std::env::set_var("ECCO_QUICK", " 1\n");
        assert!(quick_from_env(), "padded truthy values must parse");
        std::env::set_var("ECCO_QUICK", "0");
        assert!(!quick_from_env(), "ECCO_QUICK=0 must run the full trace");
        std::env::set_var("ECCO_QUICK", " 0 ");
        assert!(!quick_from_env(), "padded zero must run the full trace");
        std::env::set_var("ECCO_QUICK", "");
        assert!(!quick_from_env(), "empty value must run the full trace");
        std::env::set_var("ECCO_QUICK", "  \t ");
        assert!(!quick_from_env(), "whitespace-only must run the full trace");
        std::env::remove_var("ECCO_QUICK");
        assert!(!quick_from_env(), "unset must run the full trace");
        if let Some(v) = prev {
            std::env::set_var("ECCO_QUICK", v);
        }
    }

    #[test]
    fn dropping_handles_joins_workers() {
        let pool = Pool::builder().threads(4).build();
        let clone = pool.clone();
        drop(pool);
        // Still usable through the surviving handle.
        assert!(clone.run(8, 2, |_, _| ()).is_ok());
        drop(clone); // joins workers; must not hang
    }

    #[test]
    fn shutdown_under_concurrent_submit_and_panic_never_hangs() {
        // A lost wakeup at shutdown (the flag stored outside the queue
        // lock) leaves a worker asleep and the last handle's drop joining
        // it forever. Race many build / submit / panic / drop rounds; they
        // run on a spawned thread so a hang fails with its pool size and
        // round instead of stalling the suite.
        use std::sync::mpsc::RecvTimeoutError;
        const ROUNDS: usize = 1000;
        let (progress, rx) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            for threads in [2usize, 4, 8] {
                for round in 0..ROUNDS {
                    progress.send(Some((threads, round))).unwrap();
                    let pool = Pool::builder().threads(threads).build();
                    let submitters: Vec<_> = (0..3)
                        .map(|_| {
                            let pool = pool.clone();
                            std::thread::spawn(move || {
                                // `resume_unwind` skips the panic hook, so
                                // the injected panics print nothing.
                                let got = pool.run(64, 4, |lo, _| {
                                    if lo == 32 {
                                        std::panic::resume_unwind(Box::new("injected"));
                                    }
                                });
                                assert!(got.is_err(), "the panicking chunk must fail its job");
                            })
                        })
                        .collect();
                    drop(pool);
                    for s in submitters {
                        s.join().unwrap();
                    }
                }
            }
            progress.send(None).unwrap();
        });
        let mut last = None;
        loop {
            match rx.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok(Some(at)) => last = Some(at),
                // Done, or the stress thread panicked: the join reports it.
                Ok(None) | Err(RecvTimeoutError::Disconnected) => break,
                // A hung thread cannot be joined; it is left detached.
                Err(RecvTimeoutError::Timeout) => {
                    let (threads, round) = last.expect("the first round never started");
                    panic!("pool of {threads}, round {round} did not finish within 30 s");
                }
            }
        }
        stress.join().unwrap();
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Pool::builder().threads(4).build();
        std::thread::scope(|s| {
            for t in 0..6 {
                let pool = pool.clone();
                s.spawn(move || {
                    for round in 0..10 {
                        let v = pool
                            .run_map(100, 9, |lo, hi| (lo..hi).map(|i| i + t).sum::<usize>())
                            .unwrap();
                        let total: usize = v.into_iter().sum();
                        assert_eq!(total, (0..100).sum::<usize>() + 100 * t, "round {round}");
                    }
                });
            }
        });
    }
}
