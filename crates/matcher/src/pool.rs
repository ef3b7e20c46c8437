//! A persistent worker-pool execution engine.
//!
//! The paper's matcher runs on `p` *long-lived* pthreads that each own one
//! contiguous chunk of the input. The first cut of this crate approximated
//! that with `std::thread::scope`, which spawns (and joins) one fresh OS
//! thread per chunk on **every call** — fine for a single 1 GB scan,
//! catastrophic for a server answering millions of small `is_match`
//! requests, and a `Strategy::Parallel { threads: 10_000, .. }` call
//! would happily ask the OS for 10 000 threads.
//!
//! This module replaces that executor with the paper's actual execution
//! model:
//!
//! * [`WorkerPool`] — `p` long-lived worker threads parked on a condvar,
//!   created once and reused for every batch. No work stealing: a batch is
//!   a FIFO queue of chunk jobs that workers (and the submitting thread,
//!   which helps drain the queue instead of going to sleep) pop until the
//!   batch's completion latch trips.
//! * [`Engine`] — a cheaply cloneable handle to a pool, with the
//!   [`map_chunks`](Engine::map_chunks) / [`tree_reduce`](Engine::tree_reduce)
//!   combinators the matchers are built on, plus the shared process-wide
//!   [`Engine::global`] instance (sized at `available_parallelism`, built
//!   lazily on first use).
//! * [`ChunkPlan`] — the shared policy decision: how many chunks to cut
//!   (capped at the pool's worker count, so absurd `threads` arguments can
//!   no longer request one thread per byte) and whether the input is big
//!   enough for the pool to pay for the hand-off (tiny inputs run inline on
//!   the calling thread and never touch the pool).
//!
//! # Lifecycle
//!
//! A pool's threads are spawned in [`WorkerPool::new`] and parked on a
//! condvar while idle; they are woken per batch, and shut down (signalled
//! and joined) when the pool is dropped. The global engine's pool lives for
//! the rest of the process once created. Submitting from inside a pool job
//! (nested batches) is supported: a submitter never sleeps while the queue
//! is non-empty, so nested batches drain instead of deadlocking.
//!
//! # Safety
//!
//! Chunk jobs borrow the input text and the automaton from the submitting
//! stack frame, while worker threads are `'static`. Like every scoped pool
//! (crossbeam, rayon), the hand-off therefore erases the job's lifetime in
//! one well-contained `unsafe` spot (`erase`) whose soundness rests on
//! the batch protocol: `scope_map` does not return — by value or by
//! unwinding — until the completion latch has counted every job as
//! finished *and dropped*, so no erased job can outlive the data it
//! borrows. This is the only unsafe code in the crate.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Inputs whose per-chunk share is below this many bytes run inline on the
/// calling thread: at roughly a byte per nanosecond of matching work, a
/// smaller chunk would be dominated by the condvar hand-off to a worker.
pub const MIN_POOL_CHUNK_BYTES: usize = 4096;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// Erases the lifetime of a job so it can sit in the pool's `'static`
/// queue.
///
/// # Safety
///
/// The caller must guarantee the job is executed (or dropped) before `'a`
/// ends. `scope_map` upholds this by blocking on a completion latch that
/// every job trips only *after* its closure has been consumed, and by
/// never returning — normally or by panic — before the latch reads zero.
#[allow(unsafe_code)]
fn erase<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> StaticJob {
    // SAFETY: see above; both types are fat pointers of identical layout
    // differing only in the lifetime bound.
    unsafe { std::mem::transmute(job) }
}

/// Counts a batch's outstanding jobs; trips when all have completed.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panicked: bool,
}

impl Latch {
    fn new(jobs: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState { remaining: jobs, panicked: false }),
            done: Condvar::new(),
        }
    }

    /// Marks one job finished (its closure already consumed and freed).
    fn complete(&self, panicked: bool) {
        let mut s = self.state.lock().expect("latch poisoned");
        s.remaining -= 1;
        s.panicked |= panicked;
        if s.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch poisoned").remaining == 0
    }

    /// Blocks until every job completed; returns whether any panicked.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().expect("latch poisoned");
        while s.remaining > 0 {
            s = self.done.wait(s).expect("latch poisoned");
        }
        s.panicked
    }
}

struct Task {
    job: StaticJob,
    latch: Arc<Latch>,
}

impl Task {
    /// Runs the job (consuming and freeing its closure), then trips the
    /// latch. Panics are caught so a failing job poisons its batch, not the
    /// worker thread.
    fn run(self) {
        let panicked = catch_unwind(AssertUnwindSafe(self.job)).is_err();
        self.latch.complete(panicked);
    }
}

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

impl Shared {
    fn pop(&self) -> Option<Task> {
        self.queue.lock().expect("pool queue poisoned").tasks.pop_front()
    }
}

/// A fixed-size pool of long-lived worker threads parked on a condvar —
/// the paper's `p` pthreads. See the [module docs](self) for the batch
/// protocol.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers.max(1)` long-lived threads (named
    /// `sfa-worker-<i>`), parked until work arrives — `0` workers means a
    /// pool of one (the [crate-wide `0 ⇒ 1` clamp](crate)).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sfa-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `work` over every item of `items` on the pool and returns the
    /// results in item order. The calling thread helps drain the queue
    /// rather than sleeping, so a pool of `p` workers applies `p + 1`
    /// threads' worth of compute and nested calls cannot deadlock.
    pub fn scope_map<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| work(i, item)).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let latch = Arc::new(Latch::new(n));
        {
            let work = &work;
            let slots = &slots;
            // Build every job before publishing any, so there is no panic
            // point between the first enqueue and the latch wait below.
            let tasks: Vec<Task> = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| Task {
                    job: erase(Box::new(move || {
                        let r = work(i, item);
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                    })),
                    latch: Arc::clone(&latch),
                })
                .collect();
            self.shared.queue.lock().expect("pool queue poisoned").tasks.extend(tasks);
            self.shared.available.notify_all();
            // Help: drain the queue (our jobs, or earlier batches') until
            // our batch completes or there is nothing left to pop.
            while !latch.is_done() {
                match self.shared.pop() {
                    Some(task) => task.run(),
                    None => break,
                }
            }
        }
        // From here on every erased job has been consumed and freed; the
        // borrows of `work`, `slots` and the items are provably over.
        if latch.wait() {
            panic!("a pool job panicked");
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("result slot poisoned").expect("latch guarantees a result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish_non_exhaustive()
    }
}

/// One worker: pop → run → repeat; park on the condvar while the queue is
/// empty; exit once shut down *and* drained (a queued job is never
/// abandoned).
fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(task) = q.tasks.pop_front() {
                    break Some(task);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.available.wait(q).expect("pool queue poisoned");
            }
        };
        match task {
            Some(task) => task.run(),
            None => return,
        }
    }
}

/// How a matcher call should be executed: how many chunks to cut and
/// whether to engage the pool. Produced by [`Engine::plan_chunks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Number of chunks to split the input into: the requested thread
    /// count clamped to `1..=workers` (the chunk-count cap — a request for
    /// 10 000 "threads" gets the pool's worker count, not 10 000 threads).
    pub chunks: usize,
    /// Whether the chunk batch should be submitted to the pool. False when
    /// a single chunk suffices or when the per-chunk share of the input is
    /// under [`MIN_POOL_CHUNK_BYTES`] — such batches run inline on the
    /// calling thread and never touch the pool.
    pub use_pool: bool,
    /// Number of interleaved sub-chunks each worker cuts its chunk into
    /// and drives through one batched scan (`run_from_many`), composing
    /// the sub-chunk states back into the chunk's state (Lemma 1 — same
    /// verdicts, same per-chunk result). `1` means the chunk is scanned
    /// as a single chain. [`Engine::plan_chunks`] always plans `1`;
    /// [`Engine::plan_chunks_interleaved`] raises it for backends whose
    /// scan kernel profits from independent lanes, clamped so every
    /// sub-chunk keeps at least [`MIN_POOL_CHUNK_BYTES`] — the same floor
    /// that keeps whole chunks off the pool keeps lanes from degenerating
    /// into composition overhead.
    pub lanes: usize,
}

/// A cheaply cloneable handle to a [`WorkerPool`], carrying the chunking
/// policy and the `map`/`reduce` combinators the matchers run on.
#[derive(Clone)]
pub struct Engine {
    pool: Arc<WorkerPool>,
}

impl Engine {
    /// An engine backed by a dedicated pool of `workers.max(1)` threads.
    pub fn new(workers: usize) -> Engine {
        Engine { pool: Arc::new(WorkerPool::new(workers)) }
    }

    /// The process-wide shared engine, created on first use with one
    /// worker per available CPU. All matchers use this engine unless given
    /// another one explicitly, so a server answering millions of requests
    /// keeps a constant thread count.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Engine::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        })
    }

    /// Number of worker threads backing this engine.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Decides chunk count and pool usage for an input of `input_len`
    /// bytes and a requested parallelism of `threads` (`0` is treated as
    /// `1` — the [crate-wide `0 ⇒ 1` clamp](crate)). The plan's `lanes`
    /// is always `1`; see
    /// [`plan_chunks_interleaved`](Engine::plan_chunks_interleaved) for
    /// the intra-chunk interleaving knob.
    pub fn plan_chunks(&self, input_len: usize, threads: usize) -> ChunkPlan {
        let chunks = threads.clamp(1, self.workers());
        let use_pool = chunks > 1 && input_len / chunks >= MIN_POOL_CHUNK_BYTES;
        ChunkPlan { chunks, use_pool, lanes: 1 }
    }

    /// Like [`plan_chunks`](Engine::plan_chunks), but additionally plans
    /// up to `max_lanes` interleaved sub-chunks per worker chunk
    /// (`ChunkPlan::lanes`): each worker splits its slice of the haystack
    /// into that many independent lanes, drives them through one batched
    /// `run_from_many` scan — lockstep scalar or SIMD-gather, whichever
    /// the backend's kernel is — and composes the lane states back into
    /// the chunk state it would have produced anyway (Theorem 3 at a
    /// second, intra-worker level).
    ///
    /// `max_lanes` comes from the backend
    /// (`SfaBackend::preferred_lanes`): 8 for the AVX2 gather kernel, 4
    /// for the scalar lockstep walk, 1 when splitting cannot help
    /// (shuffle kernel, lazy backend, no premultiplied table). The plan
    /// clamps it so every lane keeps at least [`MIN_POOL_CHUNK_BYTES`] —
    /// below that floor the O(|D|) compositions and ragged tails outweigh
    /// the latency hiding, the same economics as the inline floor for
    /// pool hand-offs (`max_lanes` of `0` is treated as `1` — the
    /// [crate-wide `0 ⇒ 1` clamp](crate)).
    pub fn plan_chunks_interleaved(
        &self,
        input_len: usize,
        threads: usize,
        max_lanes: usize,
    ) -> ChunkPlan {
        let mut plan = self.plan_chunks(input_len, threads);
        let share = input_len / plan.chunks;
        plan.lanes = max_lanes.min(share / MIN_POOL_CHUNK_BYTES).max(1);
        plan
    }

    /// Runs `work` over every item — on the pool when `parallel` is true
    /// and there is more than one item, inline on the calling thread
    /// otherwise — and returns the results in item order.
    pub fn map_chunks<T, R, F>(&self, items: Vec<T>, parallel: bool, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if !parallel || items.len() <= 1 {
            items.into_iter().enumerate().map(|(i, item)| work(i, item)).collect()
        } else {
            self.pool.scope_map(items, work)
        }
    }

    /// Tree (logarithmic-depth) reduction with an associative operator:
    /// each round combines adjacent pairs, on the pool when `parallel` is
    /// true. This is the `O(c · log p)` reduction of Table II, where `c`
    /// is the cost of one composition.
    pub fn tree_reduce<T, F>(&self, mut values: Vec<T>, parallel: bool, combine: F) -> Option<T>
    where
        T: Send,
        F: Fn(&T, &T) -> T + Sync,
    {
        if values.is_empty() {
            return None;
        }
        while values.len() > 1 {
            let pairs: Vec<(T, Option<T>)> = {
                let mut it = values.into_iter();
                let mut pairs = Vec::new();
                while let Some(a) = it.next() {
                    pairs.push((a, it.next()));
                }
                pairs
            };
            values = self.map_chunks(pairs, parallel, |_, (a, b)| match b {
                Some(b) => combine(&a, &b),
                None => a,
            });
        }
        values.pop()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("workers", &self.workers()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_map_preserves_order_with_borrowed_data() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..97).collect();
        // The closure borrows `data` from this stack frame — the scoped
        // hand-off the whole module exists for.
        let out = pool.scope_map((0..data.len()).collect(), |i, idx| {
            assert_eq!(i, idx);
            data[idx] * 2 + 1
        });
        let expected: Vec<u64> = data.iter().map(|x| x * 2 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn pool_is_reused_across_many_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..500u64 {
            let out = pool.scope_map(vec![round, round + 1, round + 2], |_, x| x * x);
            assert_eq!(out, vec![round * round, (round + 1).pow(2), (round + 2).pow(2)]);
        }
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn batches_larger_than_the_pool_queue_up() {
        let pool = WorkerPool::new(2);
        let out = pool.scope_map((0..1000u32).collect(), |_, x| x + 1);
        assert_eq!(out, (1..=1000u32).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.scope_map(vec![1, 2, 3], |_, x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn job_panic_propagates_to_the_submitter_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map(vec![0u32, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The workers caught the unwind and are still alive.
        assert_eq!(pool.scope_map(vec![5u32, 6], |_, x| x), vec![5, 6]);
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = WorkerPool::new(2);
        let out = pool.scope_map(vec![10u64, 20, 30], |_, base| {
            pool.scope_map(vec![1u64, 2, 3], |_, d| base + d).into_iter().sum::<u64>()
        });
        assert_eq!(out, vec![36, 66, 96]);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let engine = Engine::new(2);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let engine = engine.clone();
                scope.spawn(move || {
                    for round in 0..50u64 {
                        let items: Vec<u64> = (0..5).map(|i| t * 1000 + round + i).collect();
                        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
                        assert_eq!(engine.map_chunks(items, true, |_, x| x * 3), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.scope_map(vec![1u8, 2], |_, x| x), vec![1, 2]);
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn plan_caps_chunks_at_worker_count() {
        let engine = Engine::new(4);
        // The headline bug: absurd thread counts no longer request one
        // unit of work per byte.
        assert_eq!(engine.plan_chunks(1 << 20, 10_000).chunks, 4);
        assert_eq!(engine.plan_chunks(1 << 20, 3).chunks, 3);
        // 0 clamps to 1, the crate-wide rule.
        assert_eq!(
            engine.plan_chunks(1 << 20, 0),
            ChunkPlan { chunks: 1, use_pool: false, lanes: 1 }
        );
    }

    #[test]
    fn plan_keeps_tiny_inputs_off_the_pool() {
        let engine = Engine::new(8);
        // 1 KB across 8 workers: far below the per-chunk floor.
        assert!(!engine.plan_chunks(1024, 8).use_pool);
        // Big input: pool engages, all workers used.
        let plan = engine.plan_chunks(4 << 20, 8);
        assert_eq!(plan, ChunkPlan { chunks: 8, use_pool: true, lanes: 1 });
        // Single chunk never uses the pool.
        assert!(!engine.plan_chunks(4 << 20, 1).use_pool);
    }

    #[test]
    fn interleaved_plan_clamps_lanes_to_the_per_lane_floor() {
        let engine = Engine::new(4);
        // 8 MiB over 4 workers: 2 MiB per chunk — plenty for 8 lanes.
        let plan = engine.plan_chunks_interleaved(8 << 20, 4, 8);
        assert_eq!(plan, ChunkPlan { chunks: 4, use_pool: true, lanes: 8 });
        // The chunk/pool decisions are exactly plan_chunks'.
        let base = engine.plan_chunks(8 << 20, 4);
        assert_eq!((plan.chunks, plan.use_pool), (base.chunks, base.use_pool));
        // Each lane keeps MIN_POOL_CHUNK_BYTES: a 24 KiB share allows 6.
        assert_eq!(engine.plan_chunks_interleaved(96 << 10, 4, 8).lanes, 6);
        // Tiny shares collapse to a single chain, never to zero lanes —
        // and a max_lanes of 0 clamps to 1 (the crate-wide rule).
        assert_eq!(engine.plan_chunks_interleaved(1024, 4, 8).lanes, 1);
        assert_eq!(engine.plan_chunks_interleaved(0, 1, 8).lanes, 1);
        assert_eq!(engine.plan_chunks_interleaved(8 << 20, 4, 0).lanes, 1);
        // A backend preferring fewer lanes than the share allows wins.
        assert_eq!(engine.plan_chunks_interleaved(8 << 20, 4, 4).lanes, 4);
    }

    #[test]
    fn global_engine_is_shared_and_sized_by_cpu_count() {
        let a = Engine::global();
        let b = Engine::global();
        assert_eq!(a.workers(), b.workers());
        assert!(a.workers() >= 1);
        let out = a.map_chunks(vec![1u32, 2, 3], true, |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn tree_reduce_on_engine_matches_sequential_fold() {
        let engine = Engine::new(3);
        let values: Vec<String> = (0..13).map(|i| format!("{i}-")).collect();
        let expected = values.concat();
        for parallel in [false, true] {
            let got = engine.tree_reduce(values.clone(), parallel, |a, b| format!("{a}{b}"));
            assert_eq!(got.unwrap(), expected, "parallel = {parallel}");
        }
        assert_eq!(engine.tree_reduce(Vec::<u32>::new(), true, |a, b| a + b), None);
        assert_eq!(engine.tree_reduce(vec![7u32], true, |a, b| a + b), Some(7));
        assert_eq!(engine.tree_reduce(vec![1u32, 2], true, |a, b| a + b), Some(3));
        assert_eq!(engine.tree_reduce(vec![1u32, 2, 3], false, |a, b| a + b), Some(6));
    }

    #[test]
    fn map_chunks_single_item_runs_inline() {
        let engine = Engine::new(2);
        let caller = std::thread::current().id();
        let out = engine.map_chunks(vec![41], true, |_, x| {
            assert_eq!(std::thread::current().id(), caller, "one item never leaves the caller");
            x + 1
        });
        assert_eq!(out, vec![42]);
    }
}
