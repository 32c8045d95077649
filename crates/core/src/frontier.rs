//! Work-stealing frontier execution for the multi-hop search.
//!
//! Within one stage-count sub-search, each (resource, primitive) pair of
//! a multi-hop step is an independent *generation task*: generate the
//! primitive's candidates and score them. The serial search runs these
//! tasks lazily in a canonical order; this module runs the same tasks
//! speculatively on a pool of workers and lets the reducer replay the
//! results in exactly that canonical order, so everything observable —
//! events, counters, heap updates, visited-set contents, checkpoint
//! bytes — stays bit-identical to a single-threaded run.
//!
//! The contract (invariants `INV-ORDINAL`, `INV-MEMO`, `INV-VISITED`,
//! `INV-RNG`, `INV-STEALS`) is documented in `docs/SEARCH.md` and
//! enforced by `tests/search_golden.rs` / `tests/checkpoint_resume.rs`.
//!
//! Three pieces live here:
//!
//! * [`ShardedVisited`] — the visited-fingerprint set, sharded by
//!   semantic-hash bits so workers can read it without contending on one
//!   lock. Only the reducer writes (workers are idle at wave barriers
//!   when it does), which is what makes worker-side dedup decisions
//!   consistent with the serial replay.
//! * [`FrontierPool`] — a std-only work-stealing pool in the
//!   crossbeam-deque shape: one shared injector plus one deque per
//!   worker; a worker drains its own deque first, batch-grabs from the
//!   injector next, and steals from the back of a sibling's deque when
//!   both are empty (counted in the `search_steals` counter). The pool
//!   is generic over the task/result types so its scheduling can be
//!   tested deterministically without running a real search.
//! * [`run_wave_task`] — the concrete worker body: run candidate
//!   generation through a [`TracingEvaluator`], score every not-yet-
//!   visited candidate with the worker's private [`CachedEvaluator`],
//!   and ship the captured [`EvalTrace`]s back for canonical replay.

use crate::primitives::{generate_with, Candidate, GenOptions, Primitive, Resource};
use aceso_config::ParallelConfig;
use aceso_perf::{CachedEvaluator, ConfigEstimate, EvalTrace, TracingEvaluator};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Number of visited-set shards (a power of two; the shard index is the
/// fingerprint's low bits).
const VISITED_SHARDS: usize = 16;

/// The visited-fingerprint set of one stage-count sub-search, sharded by
/// semantic hash so frontier workers can consult it lock-cheaply.
///
/// Writes happen only on the reducer thread, and only while every worker
/// is parked at a wave barrier — so a worker that observes a fingerprint
/// as visited can rely on it staying visited (the set is monotone), and
/// a worker that observes it as absent merely evaluates speculatively;
/// the reducer re-checks during the ordinal replay.
pub(crate) struct ShardedVisited {
    shards: Vec<RwLock<HashSet<u64>>>,
}

impl ShardedVisited {
    /// An empty set.
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..VISITED_SHARDS)
                .map(|_| RwLock::new(HashSet::new()))
                .collect(),
        }
    }

    fn shard(&self, h: u64) -> &RwLock<HashSet<u64>> {
        &self.shards[(h as usize) & (VISITED_SHARDS - 1)]
    }

    /// Inserts a fingerprint; `true` when it was not present (the same
    /// contract as `HashSet::insert`).
    pub(crate) fn insert(&self, h: u64) -> bool {
        self.shard(h).write().expect("visited shard").insert(h)
    }

    /// Whether a fingerprint is present.
    pub(crate) fn contains(&self, h: u64) -> bool {
        self.shard(h).read().expect("visited shard").contains(&h)
    }

    /// All fingerprints in sorted order — the canonical checkpoint form,
    /// byte-identical to the single-`HashSet` export it replaced.
    pub(crate) fn export_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("visited shard")
                    .iter()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        all
    }
}

/// One generation task of a wave: apply `prim` toward `resource` on the
/// bottleneck `stage` of `config`. Tasks of one wave share the config
/// and estimate via `Arc` — workers never clone a `ParallelConfig` just
/// to read it.
pub(crate) struct WaveTask {
    /// The configuration the primitive rewrites.
    pub config: Arc<ParallelConfig>,
    /// Its estimate (candidate generators read per-stage breakdowns).
    pub est: Arc<ConfigEstimate>,
    /// The primitive to apply.
    pub prim: Primitive,
    /// Bottleneck stage index.
    pub stage: usize,
    /// Resource the primitive should relieve.
    pub resource: Resource,
    /// Generation toggles.
    pub gen_opts: GenOptions,
}

/// A worker's verdict on one generated candidate.
pub(crate) enum CandEval {
    /// The fingerprint was already visited when the worker looked — the
    /// replay counts it as deduplicated without ever evaluating it
    /// (visited-set monotonicity guarantees the replay agrees).
    Skipped {
        /// The candidate's semantic hash.
        hash: u64,
    },
    /// The worker evaluated the candidate speculatively.
    Done {
        /// The generated candidate (config, provenance, fingerprint).
        cand: Candidate,
        /// The worker's estimate (bit-identical to what the canonical
        /// evaluator would compute — evaluation is a pure function).
        est: ConfigEstimate,
        /// Replayable per-stage memo trace of the evaluation.
        trace: EvalTrace,
    },
}

/// Everything one generation task produced, tagged implicitly with its
/// canonical ordinal by position in the wave's result vector.
pub(crate) struct TaskResult {
    /// Traces of the evaluations candidate generation itself performed
    /// (the attached recompute fix-up), in execution order.
    pub gen_traces: Vec<EvalTrace>,
    /// Per-candidate outcomes, in generation order.
    pub cands: Vec<CandEval>,
}

/// The worker body: generate `task.prim`'s candidates and score the
/// unvisited ones, capturing every evaluation as a replayable trace.
pub(crate) fn run_wave_task(
    ev: &CachedEvaluator<'_>,
    visited: &ShardedVisited,
    task: &WaveTask,
) -> TaskResult {
    let tev = TracingEvaluator::new(ev);
    let cands = generate_with(
        &tev,
        &task.config,
        &task.est,
        task.prim,
        task.stage,
        task.resource,
        task.gen_opts,
    );
    let gen_traces = tev.take_traces();
    let cands = cands
        .into_iter()
        .map(|cand| {
            if visited.contains(cand.fingerprint) {
                CandEval::Skipped {
                    hash: cand.fingerprint,
                }
            } else {
                let (est, trace) = ev.evaluate_traced(&cand.config);
                CandEval::Done { cand, est, trace }
            }
        })
        .collect();
    TaskResult { gen_traces, cands }
}

/// State of the wave currently in flight.
struct WaveState<R> {
    /// Tasks submitted but not yet completed.
    pending: usize,
    /// Result slots, indexed by task ordinal.
    results: Vec<Option<R>>,
    /// Set when a worker panicked mid-task; the reducer re-raises.
    poisoned: bool,
}

/// A std-only work-stealing worker pool (shared injector + per-worker
/// deques + steal-on-empty), used wave-synchronously: the reducer
/// submits one wave of ordinal-tagged tasks, blocks until all complete,
/// and receives the results in ordinal order regardless of which worker
/// ran what when.
///
/// Generic over task (`T`) and result (`R`) so scheduling behaviour —
/// batch grabbing, stealing, shutdown — has deterministic unit tests
/// that don't involve the search.
pub(crate) struct FrontierPool<T, R> {
    /// Wave submission queue, shared by all workers.
    injector: Mutex<VecDeque<(usize, T)>>,
    /// Wakes workers when work arrives or shutdown is signalled.
    work_cv: Condvar,
    /// One deque per worker; the owner pops the front, thieves the back.
    deques: Vec<Mutex<VecDeque<(usize, T)>>>,
    /// The in-flight wave.
    wave: Mutex<WaveState<R>>,
    /// Wakes the reducer when the wave completes (or poisons).
    done_cv: Condvar,
    /// Tasks taken from a sibling's deque — the `search_steals` counter.
    steals: AtomicU64,
    /// Set under the injector lock by [`FrontierPool::shutdown`].
    stop: AtomicBool,
}

impl<T: Send, R: Send> FrontierPool<T, R> {
    /// A pool for `workers` worker threads (spawned separately via
    /// [`FrontierPool::spawn_workers`], which needs a thread scope).
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        Self {
            injector: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            wave: Mutex::new(WaveState {
                pending: 0,
                results: Vec::new(),
                poisoned: false,
            }),
            done_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Total steals so far.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Spawns the worker threads into `scope`. `factory` runs once per
    /// worker *on that worker's thread* and returns the closure that
    /// executes tasks — which is how each worker gets its own private,
    /// non-`Sync` state (the search installs a per-worker
    /// [`CachedEvaluator`] this way).
    pub(crate) fn spawn_workers<'env, 'scope, G, W>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        factory: &'env G,
    ) where
        G: Fn(usize) -> W + Sync,
        W: FnMut(&T) -> R,
        T: 'env,
        R: 'env,
    {
        for idx in 0..self.deques.len() {
            scope.spawn(move || {
                let mut run = factory(idx);
                self.worker_loop(idx, &mut run);
            });
        }
    }

    /// Submits one wave and blocks until every task has completed,
    /// returning the results in task-ordinal order. Panics (after waking
    /// everything up for a clean join) if a worker panicked.
    pub(crate) fn run_wave(&self, tasks: Vec<T>) -> Vec<R> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let n = tasks.len();
        {
            let mut wave = self.wave.lock().expect("wave state");
            debug_assert_eq!(wave.pending, 0, "waves are strictly sequential");
            wave.pending = n;
            wave.results = (0..n).map(|_| None).collect();
        }
        {
            let mut inj = self.injector.lock().expect("injector");
            inj.extend(tasks.into_iter().enumerate());
            self.work_cv.notify_all();
        }
        let mut wave = self.wave.lock().expect("wave state");
        while wave.pending > 0 && !wave.poisoned {
            wave = self.done_cv.wait(wave).expect("wave state");
        }
        if wave.poisoned {
            drop(wave);
            self.shutdown(); // let the thread scope join cleanly
            panic!("a frontier worker panicked mid-task");
        }
        wave.results
            .drain(..)
            .map(|r| r.expect("every ordinal completed"))
            .collect()
    }

    /// Signals every worker to exit once the queues are drained. Called
    /// by the reducer after the last wave (queues are empty by then).
    pub(crate) fn shutdown(&self) {
        let _inj = self.injector.lock().expect("injector");
        self.stop.store(true, Ordering::Release);
        self.work_cv.notify_all();
    }

    fn worker_loop<W: FnMut(&T) -> R>(&self, idx: usize, run: &mut W) {
        while let Some((ordinal, task)) = self.next_task(idx) {
            let mut guard = PanicGuard {
                pool: self,
                armed: true,
            };
            let result = run(&task);
            guard.armed = false;
            drop(guard);
            let mut wave = self.wave.lock().expect("wave state");
            wave.results[ordinal] = Some(result);
            wave.pending -= 1;
            if wave.pending == 0 {
                self.done_cv.notify_all();
            }
        }
    }

    /// Own deque front → injector batch → steal a sibling's back → sleep.
    fn next_task(&self, idx: usize) -> Option<(usize, T)> {
        loop {
            if let Some(t) = self.deques[idx].lock().expect("own deque").pop_front() {
                return Some(t);
            }
            {
                let mut inj = self.injector.lock().expect("injector");
                if !inj.is_empty() {
                    // Grab a fair share in one go; extras go to our own
                    // deque where siblings can steal them back.
                    let batch = inj.len().div_ceil(self.deques.len()).max(1);
                    let first = inj.pop_front().expect("non-empty injector");
                    if batch > 1 {
                        let mut own = self.deques[idx].lock().expect("own deque");
                        for _ in 1..batch {
                            match inj.pop_front() {
                                Some(t) => own.push_back(t),
                                None => break,
                            }
                        }
                    }
                    return Some(first);
                }
            }
            for j in (0..self.deques.len()).filter(|&j| j != idx) {
                if let Some(t) = self.deques[j].lock().expect("sibling deque").pop_back() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
            let inj = self.injector.lock().expect("injector");
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            if inj.is_empty() {
                // Re-checked under the lock, so a submission between our
                // sweep and this wait cannot be missed. Work sitting in a
                // sibling's deque needs no wakeup: its owner is awake by
                // construction (a worker only sleeps with an empty deque).
                drop(self.work_cv.wait(inj).expect("injector"));
            }
        }
    }
}

/// Marks the in-flight wave poisoned if a task panics, so the reducer
/// wakes up and re-raises instead of waiting forever.
struct PanicGuard<'p, T, R> {
    pool: &'p FrontierPool<T, R>,
    armed: bool,
}

impl<T, R> Drop for PanicGuard<'_, T, R> {
    fn drop(&mut self) {
        if self.armed {
            // The wave mutex cannot be poisoned by us (we never hold it
            // while running tasks), but be tolerant anyway: this path
            // already reports a panic.
            let mut wave = match self.pool.wave.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            wave.poisoned = true;
            self.pool.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn sharded_visited_matches_hashset_semantics() {
        let v = ShardedVisited::new();
        let mut reference = HashSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..500 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
            let h = x % 97; // force collisions
            assert_eq!(v.insert(h), reference.insert(h));
            assert!(v.contains(h));
        }
        let mut expect: Vec<u64> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(v.export_sorted(), expect);
    }

    #[test]
    fn waves_return_results_in_ordinal_order() {
        let pool: FrontierPool<usize, usize> = FrontierPool::new(4);
        let factory = |_idx: usize| |t: &usize| t * t;
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &factory);
            for round in 0..3 {
                let tasks: Vec<usize> = (0..32).map(|i| i + round).collect();
                let results = pool.run_wave(tasks);
                let expect: Vec<usize> = (0..32).map(|i| (i + round) * (i + round)).collect();
                assert_eq!(results, expect, "round {round}");
            }
            pool.shutdown();
        });
    }

    /// A task parked in a blocked worker's own deque can only run by
    /// being stolen — so the steal counter must move. Worker A pops
    /// `WaitFlag` (front of its deque) and blocks; `SetFlag` sits behind
    /// it, unreachable to A until the flag is set; worker B's only path
    /// to `SetFlag` is a steal. No interleaving avoids it.
    #[test]
    fn steal_on_empty_is_exercised_and_counted() {
        enum Job {
            WaitFlag,
            SetFlag,
        }
        let flag = (StdMutex::new(false), Condvar::new());
        let pool: FrontierPool<Job, ()> = FrontierPool::new(2);
        let factory = |_idx: usize| {
            let flag = &flag;
            move |job: &Job| match job {
                Job::WaitFlag => {
                    let mut set = flag.0.lock().expect("flag");
                    while !*set {
                        set = flag.1.wait(set).expect("flag");
                    }
                }
                Job::SetFlag => {
                    *flag.0.lock().expect("flag") = true;
                    flag.1.notify_all();
                }
            }
        };
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &factory);
            // Preload worker 0's deque directly so the schedule is pinned.
            {
                let mut wave = pool.wave.lock().expect("wave");
                wave.pending = 2;
                wave.results = vec![None, None];
            }
            {
                let mut own = pool.deques[0].lock().expect("deque");
                own.push_back((0, Job::WaitFlag));
                own.push_back((1, Job::SetFlag));
                let _inj = pool.injector.lock().expect("injector");
                pool.work_cv.notify_all();
            }
            let mut wave = pool.wave.lock().expect("wave");
            while wave.pending > 0 {
                wave = pool.done_cv.wait(wave).expect("wave");
            }
            drop(wave);
            pool.shutdown();
        });
        assert!(
            pool.steals() >= 1,
            "SetFlag can only have run via a steal, got {} steals",
            pool.steals()
        );
    }

    #[test]
    fn shutdown_with_no_work_joins_cleanly() {
        let pool: FrontierPool<usize, usize> = FrontierPool::new(3);
        let factory = |_idx: usize| |t: &usize| *t;
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &factory);
            pool.shutdown();
        });
        assert_eq!(pool.steals(), 0);
    }
}
