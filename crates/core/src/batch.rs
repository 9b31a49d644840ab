//! Parallel batch-analysis front end.
//!
//! Fleet-scale experiments analyze thousands of workloads with a whole
//! suite of tests.  Two structural savings apply:
//!
//! 1. **Prepared-state sharing** — all per-workload state (component
//!    decomposition, exact utilization comparison, §4.3 bounds, deadline
//!    ordering) is computed once per workload via
//!    [`PreparedWorkload`] and shared by every test, instead of being
//!    recomputed inside each test;
//! 2. **Multi-core fan-out** — workloads are independent, so the batch is
//!    split over the available CPU cores with scoped threads
//!    ([`parallel_map`], generalized from the experiment harness's former
//!    private pool).
//!
//! [`analyze_many`] combines both; [`analyze_many_serial`] is the
//! single-threaded reference (used by the benchmarks to measure the
//! speedup).  The same fan-out serves the sensitivity searches:
//! [`crate::sensitivity::sensitivity_sweep`] runs breakdown-scaling and
//! WCET-slack searches over a workload batch through [`parallel_map`].
//!
//! # Examples
//!
//! ```
//! use edf_analysis::batch;
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let workloads = vec![
//!     TaskSet::from_tasks(vec![Task::new(Time::new(1), Time::new(8), Time::new(8))?]),
//!     TaskSet::from_tasks(vec![Task::new(Time::new(3), Time::new(5), Time::new(5))?]),
//! ];
//! let tests = edf_analysis::all_tests();
//! let results = batch::analyze_many(&workloads, &tests);
//! assert_eq!(results.len(), workloads.len());
//! assert_eq!(results[0].len(), tests.len());
//! assert!(results[0].iter().all(|a| a.verdict.is_feasible()));
//! # Ok(())
//! # }
//! ```

use std::num::NonZeroUsize;
use std::thread;

use crate::analysis::{Analysis, FeasibilityTest};
use crate::budget::WorkBudget;
use crate::kernel::AnalysisScratch;
use crate::workload::{PreparedWorkload, Workload};

/// The boxed test type the batch front end consumes (also produced by
/// [`all_tests`](crate::all_tests)).
pub type BoxedTest = Box<dyn FeasibilityTest + Send + Sync>;

/// Applies `f` to every item of `items`, splitting the work over the
/// available CPU cores with scoped threads.  Result order matches input
/// order.
///
/// Falls back to a sequential map for tiny inputs.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, || (), |(), item| f(item))
}

/// [`parallel_map`] with **per-worker mutable state**: `init` builds one
/// state per worker thread (and one for the sequential fallback), and `f`
/// receives it alongside each item.  This is how the analysis front ends
/// thread one [`AnalysisScratch`] arena (and one recycled preparation)
/// through each worker, so a batch of any size performs a constant number
/// of allocations per worker instead of per workload.
pub fn parallel_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 || items.len() < 4 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_size)
        .enumerate()
        .map(|(i, chunk)| (i * chunk_size, chunk))
        .collect();
    let slots = std::sync::Mutex::new(&mut results);
    thread::scope(|scope| {
        for (offset, chunk) in chunks {
            let init = &init;
            let f = &f;
            let slots = &slots;
            scope.spawn(move || {
                let mut state = init();
                let local: Vec<R> = chunk.iter().map(|item| f(&mut state, item)).collect();
                let mut guard = slots.lock().expect("no poisoned lock");
                for (i, value) in local.into_iter().enumerate() {
                    guard[offset + i] = Some(value);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every slot filled by a worker"))
        .collect()
}

/// Per-worker reusable state of the analysis front ends: one scratch
/// arena plus one recycled [`PreparedWorkload`] whose buffers serve every
/// workload the worker processes.
#[derive(Debug, Default)]
struct WorkerState {
    scratch: AnalysisScratch,
    prepared: Option<PreparedWorkload>,
}

impl WorkerState {
    /// Prepares `workload` (recycling the previous preparation's buffers)
    /// and runs the whole suite over it with the reused scratch.
    fn analyze<W: Workload + ?Sized>(
        &mut self,
        workload: &W,
        tests: &[BoxedTest],
    ) -> Vec<Analysis> {
        self.analyze_budgeted(workload, tests, None)
    }

    /// [`WorkerState::analyze`] with an optional **per-workload** work
    /// budget: each workload starts from a fresh allowance of `units`
    /// work units, shared by every test of the suite in order.  Seeding
    /// per workload (not per batch) is what makes batched exhaustion
    /// identical to sequential exhaustion — no worker races another for
    /// a shared pool.
    fn analyze_budgeted<W: Workload + ?Sized>(
        &mut self,
        workload: &W,
        tests: &[BoxedTest],
        units: Option<u64>,
    ) -> Vec<Analysis> {
        let prepared = match self.prepared.take() {
            Some(slot) => slot.recycled(workload),
            None => PreparedWorkload::new(workload),
        };
        if let Some(units) = units {
            self.scratch.set_budget(WorkBudget::limited(units));
        }
        let results = tests
            .iter()
            .map(|test| test.analyze_prepared_with(&prepared, &mut self.scratch))
            .collect();
        if units.is_some() {
            let _ = self.scratch.take_budget();
        }
        self.prepared = Some(prepared);
        results
    }
}

/// Prepares every workload in parallel (decomposition, exact utilization,
/// lazy bounds), preserving order.
#[must_use]
pub fn prepare_many<W: Workload + Sync>(workloads: &[W]) -> Vec<PreparedWorkload> {
    parallel_map(workloads, |w| PreparedWorkload::new(w))
}

/// Runs every test on every workload, fanning the workloads out across the
/// CPU cores.  `results[i][j]` is the analysis of `workloads[i]` by
/// `tests[j]`; each workload is prepared exactly once and shared by all
/// tests, and each worker reuses one scratch arena and one recycled
/// preparation, so the steady state performs **zero transient allocations
/// per workload**.
#[must_use]
pub fn analyze_many<W: Workload + Sync>(
    workloads: &[W],
    tests: &[BoxedTest],
) -> Vec<Vec<Analysis>> {
    parallel_map_with(workloads, WorkerState::default, |state, workload| {
        state.analyze(workload, tests)
    })
}

/// Single-threaded [`analyze_many`] (the baseline the benchmarks compare
/// the parallel fan-out against; prepared-state sharing and the
/// allocation-free scratch reuse still apply).
#[must_use]
pub fn analyze_many_serial<W: Workload>(
    workloads: &[W],
    tests: &[BoxedTest],
) -> Vec<Vec<Analysis>> {
    let mut state = WorkerState::default();
    workloads
        .iter()
        .map(|workload| state.analyze(workload, tests))
        .collect()
}

/// [`analyze_many`] under **per-workload** [`WorkBudget`]s: every workload
/// starts from its own fresh allowance of `units` deterministic work
/// units, shared by the tests of the suite in order; a workload whose
/// allowance runs out answers an honest [`Verdict::Unknown`](crate::Verdict::Unknown) carrying a
/// [`Progress`](crate::budget::Progress) record.  Because the allowance
/// is seeded per workload, the results — exhaustion points included — are
/// **identical** to [`analyze_many_serial_budgeted`] on the same inputs,
/// regardless of how the batch is split over workers (pinned by the
/// `budget_exhaustion` property suite).
#[must_use]
pub fn analyze_many_budgeted<W: Workload + Sync>(
    workloads: &[W],
    tests: &[BoxedTest],
    units: u64,
) -> Vec<Vec<Analysis>> {
    parallel_map_with(workloads, WorkerState::default, |state, workload| {
        state.analyze_budgeted(workload, tests, Some(units))
    })
}

/// Single-threaded [`analyze_many_budgeted`]; bit-identical results.
#[must_use]
pub fn analyze_many_serial_budgeted<W: Workload>(
    workloads: &[W],
    tests: &[BoxedTest],
    units: u64,
) -> Vec<Vec<Analysis>> {
    let mut state = WorkerState::default();
    workloads
        .iter()
        .map(|workload| state.analyze_budgeted(workload, tests, Some(units)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{DeviTest, ProcessorDemandTest, QpaTest};
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn suite() -> Vec<BoxedTest> {
        vec![
            Box::new(DeviTest::new()),
            Box::new(ProcessorDemandTest::new()),
            Box::new(QpaTest::new()),
        ]
    }

    fn sample_sets() -> Vec<TaskSet> {
        vec![
            TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]),
        ]
    }

    #[test]
    fn parallel_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..1_000).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled.len(), items.len());
        for (i, value) in doubled.iter().enumerate() {
            assert_eq!(*value, items[i] * 2);
        }
    }

    #[test]
    fn parallel_map_small_inputs() {
        assert_eq!(parallel_map(&[1, 2, 3], |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
    }

    #[test]
    fn analyze_many_matches_individual_analyze_calls() {
        let workloads = sample_sets();
        let tests = suite();
        let batch = analyze_many(&workloads, &tests);
        assert_eq!(batch.len(), workloads.len());
        for (i, ts) in workloads.iter().enumerate() {
            assert_eq!(batch[i].len(), tests.len());
            for (j, test) in tests.iter().enumerate() {
                assert_eq!(batch[i][j], test.analyze(ts), "workload {i}, test {j}");
            }
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let workloads = sample_sets();
        let tests = suite();
        assert_eq!(
            analyze_many(&workloads, &tests),
            analyze_many_serial(&workloads, &tests)
        );
    }

    #[test]
    fn empty_inputs() {
        let tests = suite();
        assert!(analyze_many::<TaskSet>(&[], &tests).is_empty());
        assert!(analyze_many_serial::<TaskSet>(&[], &tests).is_empty());
        assert!(prepare_many::<TaskSet>(&[]).is_empty());
        let workloads = sample_sets();
        let none: Vec<BoxedTest> = Vec::new();
        let results = analyze_many(&workloads, &none);
        assert_eq!(results.len(), workloads.len());
        assert!(results.iter().all(Vec::is_empty));
    }

    #[test]
    fn single_element_batch() {
        let workloads = vec![sample_sets().remove(0)];
        let tests = suite();
        let batch = analyze_many(&workloads, &tests);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].len(), tests.len());
        assert_eq!(batch, analyze_many_serial(&workloads, &tests));
        for (j, test) in tests.iter().enumerate() {
            assert_eq!(batch[0][j], test.analyze(&workloads[0]));
        }
    }

    #[test]
    fn mixed_family_batch() {
        use edf_model::{ArrivalCurve, ArrivalCurveTask, EventStream, EventStreamTask, Time};

        let sporadic = TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12)]);
        let stream = EventStreamTask::new(
            EventStream::bursty(3, Time::new(5), Time::new(100)),
            Time::new(4),
            Time::new(20),
        )
        .unwrap();
        let curve = ArrivalCurveTask::new(
            ArrivalCurve::from_event_stream(stream.stream()),
            Time::new(4),
            Time::new(20),
        )
        .unwrap();
        let workloads: Vec<Box<dyn Workload + Send + Sync>> = vec![
            Box::new(sporadic.clone()),
            Box::new(stream.clone()),
            Box::new(curve),
        ];
        let tests = suite();
        let batch = analyze_many(&workloads, &tests);
        assert_eq!(batch.len(), 3);
        for (j, test) in tests.iter().enumerate() {
            assert_eq!(batch[0][j], test.analyze(&sporadic));
            assert_eq!(batch[1][j], test.analyze_workload(&stream));
            // The arrival-curve twin of the stream gets identical results.
            assert_eq!(batch[2][j], batch[1][j]);
        }
    }
}
