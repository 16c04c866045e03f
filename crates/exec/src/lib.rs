//! # soccar-exec
//!
//! The parallel execution layer of the SoCCAR pipeline: a dependency-free,
//! hand-rolled **scoped worker pool** (`std::thread` + channels) exposing a
//! deterministic [`parallel_map`] API.
//!
//! Every stage that fans out through this crate obeys the project-wide
//! **determinism contract** (DESIGN.md §9):
//!
//! * results are merged **by item index**, never by completion order, so
//!   the output of `parallel_map(jobs, items, f)` is byte-for-byte the
//!   same `Vec` for every `jobs` value;
//! * the worker function receives `&T` and must not communicate with its
//!   siblings — each task's result may depend only on its input;
//! * a panicking task does not poison its siblings: remaining tasks still
//!   run, and what happens afterwards is the caller's
//!   [`FailurePolicy`] — [`FailurePolicy::FailFast`] re-raises the payload
//!   of the **lowest-index** panic on the caller's thread (again
//!   independent of scheduling), while [`FailurePolicy::KeepGoing`] turns
//!   each panic into an index-ordered [`TaskOutcome::Failed`] slot that
//!   preserves the panic message.
//!
//! The pool is *scoped*: workers borrow `items` and `f` from the caller's
//! stack frame and are always joined before [`parallel_map`] returns, so
//! no `'static` bounds are required and no threads outlive the call.
//!
//! Job-count selection is centralized in [`resolve_jobs`]: an explicit
//! request (`--jobs N`) wins, then the `SOCCAR_JOBS` environment variable,
//! then the machine's available parallelism.
//!
//! This crate also hosts the deterministic fault-injection plans
//! ([`FaultPlan`], the `SOCCAR_FAULTS` variable) because it sits below
//! every other crate in the workspace — smt, cfg, concolic, and core all
//! consult the same plan type at their named injection points.
//!
//! # Examples
//!
//! ```
//! use soccar_exec::parallel_map;
//!
//! let squares = parallel_map(4, &[1u64, 2, 3, 4], |n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, always
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod faultplan;
mod semaphore;

pub use faultplan::{FaultPlan, FAULTS_ENV, KNOWN_POINTS};
pub use semaphore::{Semaphore, SemaphoreGuard};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The environment variable consulted by [`resolve_jobs`].
pub const JOBS_ENV: &str = "SOCCAR_JOBS";

/// Resolves the worker count for a pool.
///
/// Precedence:
///
/// 1. `explicit` (a `--jobs N` flag), when `Some(n)` with `n > 0`;
/// 2. the `SOCCAR_JOBS` environment variable, when set to a positive
///    integer (anything else is ignored);
/// 3. [`std::thread::available_parallelism`], falling back to 1.
///
/// `Some(0)` is treated like `None` so callers can plumb a plain
/// `usize` config field through with `0 = auto`.
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(s) = std::env::var(JOBS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What a pool does when a task panics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// After all tasks finish, re-raise the payload of the lowest-index
    /// panicking task on the caller's thread (the historical behavior).
    #[default]
    FailFast,
    /// Convert each panic into an index-ordered [`TaskOutcome::Failed`]
    /// slot carrying the panic message, and keep going. Merging stays
    /// deterministic: the failed slot sits exactly where the result
    /// would have.
    KeepGoing,
}

/// The per-task result of a [`parallel_map_policy`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome<R> {
    /// The task completed and produced a value.
    Ok(R),
    /// The task panicked; `panic` is the original payload rendered as a
    /// string (the `&str`/`String` payload verbatim, or a placeholder for
    /// exotic payload types), so degraded reports can say *why* a worker
    /// died.
    Failed {
        /// The panic payload as a message.
        panic: String,
    },
}

impl<R> TaskOutcome<R> {
    /// The value if the task succeeded.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            TaskOutcome::Failed { .. } => None,
        }
    }

    /// A reference to the value if the task succeeded.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            TaskOutcome::Failed { .. } => None,
        }
    }

    /// The panic message if the task failed.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed { panic } => Some(panic),
        }
    }

    /// `true` if the task panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, TaskOutcome::Failed { .. })
    }
}

/// Renders a caught panic payload as a string, preserving `&str` and
/// `String` payloads (the overwhelmingly common cases from `panic!` and
/// `assert!`) verbatim.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Worker-utilization counters for one `parallel_map` call (or several,
/// via [`PoolStats::absorb`]). These make a speedup *observable* — the
/// pipeline's stage reports carry them — but they are wall-clock
/// measurements and therefore excluded from canonical (deterministic)
/// report serializations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Workers the pool ran with (the resolved job count).
    pub jobs: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Summed task execution time across all workers.
    pub busy: Duration,
    /// Wall-clock time of the mapped region.
    pub elapsed: Duration,
}

impl PoolStats {
    /// Mean worker utilization in `[0, 1]`: busy time divided by the
    /// wall-clock capacity (`elapsed × jobs`). 1.0 means every worker was
    /// solving the whole time; values near `1/jobs` mean the work was
    /// effectively serial.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let capacity = self.elapsed.as_secs_f64() * self.jobs as f64;
        if capacity <= f64::EPSILON {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Folds another call's counters into this one (job counts take the
    /// maximum, everything else accumulates).
    pub fn absorb(&mut self, other: &PoolStats) {
        self.jobs = self.jobs.max(other.jobs);
        self.tasks += other.tasks;
        self.busy += other.busy;
        self.elapsed += other.elapsed;
    }
}

type RawResult<R> = Result<R, Box<dyn std::any::Any + Send>>;

/// The shared pool core: runs every task, captures panics, and returns
/// per-task `Result`s **in input order** together with the pool's
/// utilization counters. All public entry points are policy adapters
/// over this.
fn parallel_map_raw<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<RawResult<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = if jobs == 0 { resolve_jobs(None) } else { jobs };
    let started = Instant::now();
    let workers = jobs.min(items.len()).max(1);

    if workers <= 1 {
        // Inline fast path: no threads, but the same panic-capture
        // semantics (later items still run so side-effect-free tasks
        // behave identically to the pooled path).
        let mut busy = Duration::ZERO;
        let mut out: Vec<RawResult<R>> = Vec::with_capacity(items.len());
        for item in items {
            let t = Instant::now();
            out.push(catch_unwind(AssertUnwindSafe(|| f(item))));
            busy += t.elapsed();
        }
        let stats = PoolStats {
            jobs: 1,
            tasks: items.len(),
            busy,
            elapsed: started.elapsed(),
        };
        return (out, stats);
    }

    // Work queue: a shared atomic cursor hands indices to workers; each
    // worker sends `(index, result, task_time)` back over a channel.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, RawResult<R>, Duration)>();
    let mut slots: Vec<Option<RawResult<R>>> = (0..items.len()).map(|_| None).collect();
    let mut busy = Duration::ZERO;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                // A send can only fail if the receiver is gone, which
                // cannot happen while the scope borrows it.
                let _ = tx.send((i, result, t.elapsed()));
            }));
        }
        drop(tx);
        for (i, result, took) in &rx {
            busy += took;
            slots[i] = Some(result);
        }
        // Join explicitly: the scope's implicit wait returns once the
        // closures finish, while the threads may still be exiting and
        // holding their allocator arenas. Joining lets the next call's
        // workers reuse those arenas instead of creating new ones, each
        // of which would keep its own high-water mark resident. Tasks
        // catch their own panics, so a join never fails.
        for h in handles {
            let _ = h.join();
        }
    });

    let stats = PoolStats {
        jobs: workers,
        tasks: items.len(),
        busy,
        elapsed: started.elapsed(),
    };
    (
        slots
            .into_iter()
            .map(|r| r.expect("every index produced a result"))
            .collect(),
        stats,
    )
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in **input order** (see the module docs for the determinism contract).
///
/// `jobs == 0` resolves automatically as in [`resolve_jobs`]; `jobs == 1`
/// (or a single item) runs inline on the calling thread with no pool.
///
/// # Panics
///
/// If one or more tasks panic, the panic payload of the lowest-index
/// failing task is re-raised after all tasks have finished
/// ([`FailurePolicy::FailFast`]).
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_stats(jobs, items, f).0
}

/// Like [`parallel_map`], additionally returning the pool's utilization
/// counters for stage reporting.
///
/// # Panics
///
/// As [`parallel_map`].
pub fn parallel_map_stats<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (raw, stats) = parallel_map_raw(jobs, items, f);
    let mut out = Vec::with_capacity(raw.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    // `raw` is index-ordered, so the first error seen is the
    // lowest-index panic and its original payload is what re-raises.
    for r in raw {
        match r {
            Ok(v) => out.push(v),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    (out, stats)
}

/// Like [`parallel_map_stats`], but with an explicit [`FailurePolicy`]:
/// under [`FailurePolicy::KeepGoing`] each panicking task yields an
/// index-ordered [`TaskOutcome::Failed`] slot (carrying the panic
/// message) instead of aborting the caller.
///
/// # Panics
///
/// Under [`FailurePolicy::FailFast`], as [`parallel_map`]; never under
/// [`FailurePolicy::KeepGoing`].
pub fn parallel_map_policy<T, R, F>(
    jobs: usize,
    items: &[T],
    policy: FailurePolicy,
    f: F,
) -> (Vec<TaskOutcome<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (raw, stats) = parallel_map_raw(jobs, items, f);
    if policy == FailurePolicy::FailFast {
        if let Some(pos) = raw.iter().position(Result::is_err) {
            let mut raw = raw;
            let Err(p) = raw.swap_remove(pos) else {
                unreachable!("position() found an Err")
            };
            resume_unwind(p);
        }
    }
    let outcomes = raw
        .into_iter()
        .map(|r| match r {
            Ok(v) => TaskOutcome::Ok(v),
            Err(p) => TaskOutcome::Failed {
                panic: panic_message(p.as_ref()),
            },
        })
        .collect();
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_arrive_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|n| n * 3 + 1).collect();
        for jobs in [1, 2, 4, 16] {
            assert_eq!(parallel_map(jobs, &items, |n| n * 3 + 1), expect);
        }
    }

    #[test]
    fn staggered_completion_still_merges_by_index() {
        // Later items finish first; the merge must not care.
        let items: Vec<u64> = (0..8).collect();
        let out = parallel_map(4, &items, |n| {
            std::thread::sleep(Duration::from_millis(8 - *n));
            *n
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |n| *n).is_empty());
        assert_eq!(parallel_map(4, &[7u32], |n| n + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_resolves_automatically() {
        assert_eq!(parallel_map(0, &[1u32, 2], |n| *n), vec![1, 2]);
    }

    #[test]
    fn all_tasks_run_even_when_one_panics() {
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(2, &[0u32, 1, 2, 3], |n| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(*n != 1, "boom {n}");
                *n
            })
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "siblings kept running");
    }

    #[test]
    fn lowest_index_panic_wins() {
        for jobs in [1, 4] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(jobs, &[0u32, 1, 2, 3], |n| {
                    if *n >= 2 {
                        panic!("task {n} failed");
                    }
                    *n
                })
            }));
            let payload = result.expect_err("panics propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("string payload");
            assert_eq!(msg, "task 2 failed", "jobs={jobs}");
        }
    }

    #[test]
    fn keep_going_yields_failed_slots_in_place() {
        for jobs in [1, 4] {
            let (out, stats) =
                parallel_map_policy(jobs, &[0u32, 1, 2, 3], FailurePolicy::KeepGoing, |n| {
                    if *n == 2 {
                        panic!("task {n} exploded");
                    }
                    *n * 10
                });
            assert_eq!(stats.tasks, 4);
            assert_eq!(out[0], TaskOutcome::Ok(0), "jobs={jobs}");
            assert_eq!(out[1], TaskOutcome::Ok(10));
            assert_eq!(
                out[2],
                TaskOutcome::Failed {
                    panic: "task 2 exploded".to_owned()
                },
                "panic payload preserved, jobs={jobs}"
            );
            assert_eq!(out[3], TaskOutcome::Ok(30));
            assert_eq!(out[2].panic_message(), Some("task 2 exploded"));
            assert!(out[2].is_failed());
            assert_eq!(out[3].as_ok(), Some(&30));
        }
    }

    #[test]
    fn fail_fast_policy_rethrows_original_payload() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_policy(2, &[0u32, 1], FailurePolicy::FailFast, |n| {
                assert!(*n != 1, "kaboom");
                *n
            })
        }));
        let payload = result.expect_err("panics propagate");
        assert!(panic_message(payload.as_ref()).contains("kaboom"));
    }

    #[test]
    fn panic_message_preserves_str_and_string_payloads() {
        let p1 = catch_unwind(|| panic!("static message")).expect_err("panics");
        assert_eq!(panic_message(p1.as_ref()), "static message");
        let p2 = catch_unwind(|| panic!("formatted {}", 42)).expect_err("panics");
        assert_eq!(panic_message(p2.as_ref()), "formatted 42");
        let p3 = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).expect_err("panics");
        assert_eq!(panic_message(p3.as_ref()), "<non-string panic payload>");
    }

    #[test]
    fn stats_count_tasks_and_busy_time() {
        let (out, stats) = parallel_map_stats(2, &[1u32, 2, 3], |n| {
            std::thread::sleep(Duration::from_millis(2));
            *n
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.tasks, 3);
        assert_eq!(stats.jobs, 2);
        assert!(stats.busy >= Duration::from_millis(6));
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.utilization() > 0.0);
        assert!(stats.utilization() <= 1.0);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = PoolStats {
            jobs: 2,
            tasks: 3,
            busy: Duration::from_millis(10),
            elapsed: Duration::from_millis(6),
        };
        let b = PoolStats {
            jobs: 4,
            tasks: 5,
            busy: Duration::from_millis(2),
            elapsed: Duration::from_millis(1),
        };
        a.absorb(&b);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.tasks, 8);
        assert_eq!(a.busy, Duration::from_millis(12));
        assert_eq!(a.elapsed, Duration::from_millis(7));
        assert_eq!(PoolStats::default().utilization(), 0.0);
    }

    #[test]
    fn explicit_jobs_beat_everything() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(Some(0)) >= 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn borrowed_state_is_usable_from_tasks() {
        // The scoped pool lets tasks borrow caller-stack data.
        let table = [10u64, 20, 30];
        let out = parallel_map(4, &[0usize, 1, 2], |i| table[*i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }
}
