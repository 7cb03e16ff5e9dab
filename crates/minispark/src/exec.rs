//! Execution context: scoped parallel execution over partitions, with
//! panic isolation, bounded per-task retries, and engine metrics.
//!
//! minispark executes one *stage* (a chain of narrow transformations ending
//! at a shuffle or an action) as a set of independent partition tasks. Tasks
//! are pulled from a shared atomic cursor by a fixed pool of scoped worker
//! threads — simple work stealing with zero allocation per task.
//!
//! Fault tolerance mirrors Spark's task model: a panicking task is caught
//! with [`std::panic::catch_unwind`] and re-attempted up to the context's
//! [`RetryPolicy`]; a task that exhausts its attempts fails the *stage* with
//! a structured [`TaskError`] instead of tearing down the process, and the
//! remaining workers stop claiming new tasks. Other stages — and the caller
//! — survive.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Engine counters, updated by the dataset layer during execution.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Partition tasks handed to the worker pool (counted at submission).
    pub scheduled_tasks: AtomicU64,
    /// Partition tasks that ran to completion (a retried task counts once,
    /// on its successful attempt).
    pub completed_tasks: AtomicU64,
    /// Tasks that exhausted their retry budget and failed their stage.
    pub failed_tasks: AtomicU64,
    /// Re-attempts after a caught panic (a task that panics twice and then
    /// succeeds contributes 2).
    pub retried_tasks: AtomicU64,
    /// Records moved through shuffles.
    pub shuffled_records: AtomicU64,
    /// Number of shuffle materializations.
    pub shuffles: AtomicU64,
    /// Rows deep-copied out of a *shared* partition (cache, shuffle, or
    /// source) because a consumer needed ownership. Zero-copy plans keep
    /// this at zero on re-reads; see [`Partition::into_vec`](crate::Partition::into_vec).
    pub rows_cloned: AtomicU64,
    /// Approximate payload bytes behind `rows_cloned`, computed from the
    /// static element size (heap payloads of `String`-like rows are not
    /// followed).
    pub bytes_cloned: AtomicU64,
}

/// A plain-number copy of [`ExecMetrics`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Tasks handed to the worker pool.
    pub scheduled_tasks: u64,
    /// Tasks that ran to completion.
    pub completed_tasks: u64,
    /// Tasks that exhausted retries and failed their stage.
    pub failed_tasks: u64,
    /// Re-attempts after caught panics.
    pub retried_tasks: u64,
    /// Records moved through shuffles.
    pub shuffled_records: u64,
    /// Shuffle materializations.
    pub shuffles: u64,
    /// Rows deep-copied out of shared partitions.
    pub rows_cloned: u64,
    /// Approximate bytes behind `rows_cloned`.
    pub bytes_cloned: u64,
}

impl ExecMetrics {
    /// Snapshot the counters as plain numbers.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            // ordering: independent statistic counter, never a synchronization point
            scheduled_tasks: self.scheduled_tasks.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            completed_tasks: self.completed_tasks.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            failed_tasks: self.failed_tasks.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            retried_tasks: self.retried_tasks.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            shuffled_records: self.shuffled_records.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            shuffles: self.shuffles.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            rows_cloned: self.rows_cloned.load(Ordering::Relaxed),
            // ordering: independent statistic counter, never a synchronization point
            bytes_cloned: self.bytes_cloned.load(Ordering::Relaxed),
        }
    }
}

/// A partition task that panicked on every allowed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Index of the failing partition task.
    pub partition: usize,
    /// Attempts consumed (1 = no retries were allowed or needed).
    pub attempts: u32,
    /// Stringified panic payload of the final attempt.
    pub payload: String,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task for partition {} panicked after {} attempt(s): {}",
            self.partition, self.attempts, self.payload
        )
    }
}

impl std::error::Error for TaskError {}

/// Convert a panic payload into a displayable string.
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Bounded per-task retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per task, including the first (`>= 1`).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Policy with `max_attempts` total attempts per task (clamped to 1).
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1) }
    }
}

impl Default for RetryPolicy {
    /// One attempt: fail fast, no retries.
    fn default() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

/// Hook invoked on every retry, with the error of the failed attempt.
type RetryHook = Arc<dyn Fn(&TaskError) + Send + Sync>;

/// Execution context shared by every plan in a job.
pub struct ExecContext {
    threads: usize,
    retry: RetryPolicy,
    on_retry: Option<RetryHook>,
    /// Engine metrics for the lifetime of this context.
    pub metrics: ExecMetrics,
}

impl fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecContext")
            .field("threads", &self.threads)
            .field("retry", &self.retry)
            .field("on_retry", &self.on_retry.as_ref().map(|_| "<hook>"))
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl ExecContext {
    /// Context with an explicit worker-thread count (`>= 1`).
    pub fn with_threads(threads: usize) -> Self {
        ExecContext {
            threads: threads.max(1),
            retry: RetryPolicy::default(),
            on_retry: None,
            metrics: ExecMetrics::default(),
        }
    }

    /// Context sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::with_threads(threads)
    }

    /// Set the per-task retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Install a hook invoked on every retry (builder style). The hook runs
    /// on the worker thread, after the attempt's panic has been caught.
    pub fn with_on_retry(mut self, hook: impl Fn(&TaskError) + Send + Sync + 'static) -> Self {
        self.on_retry = Some(Arc::new(hook));
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run one task with panic isolation and bounded retries.
    fn run_task<R>(&self, i: usize, f: &(impl Fn(usize) -> R + Sync)) -> Result<R, TaskError> {
        let mut attempt = 1u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(r) => {
                    // ordering: independent statistic counter, never a synchronization point
                    self.metrics.completed_tasks.fetch_add(1, Ordering::Relaxed);
                    return Ok(r);
                }
                Err(payload) => {
                    let err = TaskError {
                        partition: i,
                        attempts: attempt,
                        payload: payload_string(payload),
                    };
                    if attempt < self.retry.max_attempts {
                        // ordering: independent statistic counter, never a synchronization point
                        self.metrics.retried_tasks.fetch_add(1, Ordering::Relaxed);
                        if let Some(hook) = &self.on_retry {
                            hook(&err);
                        }
                        attempt += 1;
                    } else {
                        // ordering: independent statistic counter, never a synchronization point
                        self.metrics.failed_tasks.fetch_add(1, Ordering::Relaxed);
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Run `f(i)` for `i in 0..n` in parallel and collect results in order,
    /// isolating panics: a task that panics is retried per the context's
    /// [`RetryPolicy`], and a task that exhausts its attempts fails the
    /// stage with a [`TaskError`] while the process — and every other
    /// stage — survives. On failure the remaining workers stop claiming
    /// tasks (already-running tasks finish).
    ///
    /// This is the engine's parallel primitive; stages and shuffles are
    /// built on it. `f` runs on scoped threads, so it may borrow from the
    /// caller's stack.
    pub fn try_parallel_indexed<R, F>(&self, n: usize, f: F) -> Result<Vec<R>, TaskError>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        // ordering: independent statistic counter, never a synchronization point
        self.metrics.scheduled_tasks.fetch_add(n as u64, Ordering::Relaxed);
        if self.threads == 1 || n == 1 {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(self.run_task(i, &f)?);
            }
            return Ok(out);
        }
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        // Each worker claims a *chunk* of indices from the shared cursor per
        // contended fetch_add (one atomic for several tasks), runs them, and
        // keeps results locally; results are merged into ordered slots after
        // the scope. The chunk is sized so every worker still gets several
        // claims — load balance survives a skewed tail. A terminal task
        // failure flips `failed` so siblings drain.
        let workers = self.threads.min(n);
        let chunk = (n / (workers * 4)).max(1);
        let results: Vec<Result<Vec<(usize, R)>, TaskError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let failed = &failed;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        'claims: loop {
                            // ordering: advisory early-exit flag; a stale read only delays draining
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            // ordering: the RMW itself hands out disjoint chunks; no other memory rides on it
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            for i in start..(start + chunk).min(n) {
                                // ordering: advisory early-exit flag; a stale read only delays draining
                                if failed.load(Ordering::Relaxed) {
                                    break 'claims;
                                }
                                match self.run_task(i, f) {
                                    Ok(r) => local.push((i, r)),
                                    Err(e) => {
                                        // ordering: advisory flag; the scope join is the real synchronization
                                        failed.store(true, Ordering::Relaxed);
                                        return Err(e);
                                    }
                                }
                            }
                        }
                        Ok(local)
                    })
                })
                .collect();
            // lint-allow(R1): join() on a pool worker: user closures run under catch_unwind inside run_task, so a worker panic is a harness bug, not a task failure
            handles.into_iter().map(|h| h.join().expect("worker survived")).collect()
        });
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_err: Option<TaskError> = None;
        for worker in results {
            match worker {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(e) => {
                    // Keep the error of the lowest partition for determinism.
                    match &first_err {
                        Some(prev) if prev.partition <= e.partition => {}
                        _ => first_err = Some(e),
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            // lint-allow(R1): slot claimed for every index by the work-stealing cursor when no task errored; structural invariant of try_parallel_indexed
            .map(|s| s.expect("every index was claimed"))
            .collect())
    }

    /// Infallible wrapper over [`ExecContext::try_parallel_indexed`] for
    /// callers that treat a stage failure as a bug: panics on [`TaskError`]
    /// (after the per-task retry budget, on the *calling* thread).
    pub fn parallel_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        match self.try_parallel_indexed(n, f) {
            Ok(out) => out,
            // lint-allow(R1): parallel_indexed(): documented panicking twin of try_parallel_indexed()
            Err(e) => panic!("stage failed: {e}"),
        }
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Silence the default panic hook's backtrace spam for tests that
    /// deliberately panic inside tasks.
    fn quiet_panics() {
        std::panic::set_hook(Box::new(|_| {}));
    }

    #[test]
    fn parallel_indexed_preserves_order() {
        let ctx = ExecContext::with_threads(4);
        let out = ctx.parallel_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let ctx = ExecContext::with_threads(1);
        assert_eq!(ctx.threads(), 1);
        let out = ctx.parallel_indexed(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_tasks() {
        let ctx = ExecContext::with_threads(4);
        let out: Vec<usize> = ctx.parallel_indexed(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_from_stack() {
        let data = [10, 20, 30];
        let ctx = ExecContext::with_threads(2);
        let out = ctx.parallel_indexed(data.len(), |i| data[i] * 2);
        assert_eq!(out, vec![20, 40, 60]);
    }

    #[test]
    fn metrics_count_scheduled_and_completed() {
        let ctx = ExecContext::with_threads(2);
        ctx.parallel_indexed(7, |i| i);
        ctx.parallel_indexed(3, |i| i);
        let m = ctx.metrics.snapshot();
        assert_eq!(m.scheduled_tasks, 10);
        assert_eq!(m.completed_tasks, 10);
        assert_eq!(m.failed_tasks, 0);
        assert_eq!(m.retried_tasks, 0);
    }

    #[test]
    fn thread_count_clamped_to_one() {
        let ctx = ExecContext::with_threads(0);
        assert_eq!(ctx.threads(), 1);
    }

    #[test]
    fn panicking_task_fails_stage_with_task_error() {
        quiet_panics();
        let ctx = ExecContext::with_threads(4).with_retry(RetryPolicy::new(3));
        let err = ctx
            .try_parallel_indexed(8, |i| {
                if i == 5 {
                    panic!("boom in {i}");
                }
                i
            })
            .unwrap_err();
        assert_eq!(err.partition, 5);
        assert_eq!(err.attempts, 3);
        assert!(err.payload.contains("boom in 5"), "{}", err.payload);
        let m = ctx.metrics.snapshot();
        assert_eq!(m.failed_tasks, 1);
        assert_eq!(m.retried_tasks, 2);
        // The process (and the context) survive: the next stage runs fine.
        let ok = ctx.try_parallel_indexed(4, |i| i * 10).unwrap();
        assert_eq!(ok, vec![0, 10, 20, 30]);
    }

    #[test]
    fn transient_panic_recovers_with_retries() {
        quiet_panics();
        use std::sync::Mutex;
        let failed_once = Mutex::new(std::collections::HashSet::new());
        let ctx = ExecContext::with_threads(4).with_retry(RetryPolicy::new(2));
        let out = ctx
            .try_parallel_indexed(16, |i| {
                // Every odd task panics exactly once, then succeeds.
                if i % 2 == 1 && failed_once.lock().unwrap().insert(i) {
                    panic!("transient {i}");
                }
                i
            })
            .unwrap();
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let m = ctx.metrics.snapshot();
        assert_eq!(m.retried_tasks, 8);
        assert_eq!(m.completed_tasks, 16);
        assert_eq!(m.failed_tasks, 0);
    }

    #[test]
    fn on_retry_hook_observes_each_attempt() {
        quiet_panics();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let ctx = ExecContext::with_threads(1)
            .with_retry(RetryPolicy::new(4))
            .with_on_retry(move |e| {
                assert_eq!(e.partition, 0);
                // ordering: independent statistic, never a synchronization point
                seen2.fetch_add(1, Ordering::Relaxed);
            });
        let err = ctx.try_parallel_indexed(1, |_| -> usize { panic!("always") }).unwrap_err();
        assert_eq!(err.attempts, 4);
        // ordering: independent statistic, never a synchronization point
        assert_eq!(seen.load(Ordering::Relaxed), 3, "retries = attempts - 1");
    }

    #[test]
    fn sibling_tasks_survive_a_failure() {
        quiet_panics();
        let done = AtomicU64::new(0);
        let ctx = ExecContext::with_threads(2);
        let _ = ctx.try_parallel_indexed(64, |i| {
            if i == 0 {
                panic!("first task dies");
            }
            // ordering: independent statistic, never a synchronization point
            done.fetch_add(1, Ordering::Relaxed);
            i
        });
        // Some siblings ran; none brought the process down. (Exactly how
        // many ran depends on scheduling; at least the co-claimed ones.)
        let m = ctx.metrics.snapshot();
        assert_eq!(m.failed_tasks, 1);
        // ordering: independent statistic, never a synchronization point
        assert_eq!(m.completed_tasks, done.load(Ordering::Relaxed));
    }

    #[test]
    fn retry_policy_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::new(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 1);
    }

    #[test]
    fn task_error_displays_context() {
        let e = TaskError { partition: 3, attempts: 2, payload: "oops".into() };
        let s = e.to_string();
        assert!(s.contains("partition 3") && s.contains("2 attempt") && s.contains("oops"), "{s}");
    }
}
