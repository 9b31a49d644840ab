//! Exhaustive reference checking of the processor demand criterion.
//!
//! [`exhaustive_check`] evaluates `dbf(I, Γ) ≤ I` at **every** integer
//! interval up to a horizon, without any of the accelerations of the real
//! tests (deadline enumeration, approximation, bounds).  It is deliberately
//! naive — `O(horizon · n)` — and exists as an independent oracle for the
//! test-suite and for debugging: any disagreement between a fast test and
//! this function on a small task set pinpoints a bug immediately.

use edf_model::{TaskSet, Time};

use crate::analysis::{Analysis, DemandOverload, IterationCounter, Verdict};
use crate::bounds::hyperperiod_components;
use crate::workload::{PreparedWorkload, Workload};

/// Default cap on the exhaustive horizon (ticks).
const DEFAULT_HORIZON_CAP: u64 = 1 << 22;

/// Exhaustively checks the processor demand criterion for every integer
/// interval `1 ..= horizon`, where `horizon` is `hyperperiod + max deadline`
/// capped at `2²²` ticks (pass an explicit horizon via
/// [`exhaustive_check_up_to`] to override).
///
/// The verdict is exact whenever the natural horizon fits under the cap, and
/// [`Verdict::Unknown`] otherwise (unless a violation is found below the
/// cap, which is always conclusive).
///
/// # Examples
///
/// ```
/// use edf_analysis::exhaustive::exhaustive_check;
/// use edf_analysis::Verdict;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(4))?,
///     Task::new(Time::new(2), Time::new(6), Time::new(8))?,
/// ]);
/// assert_eq!(exhaustive_check(&ts).verdict, Verdict::Feasible);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn exhaustive_check(task_set: &TaskSet) -> Analysis {
    exhaustive_check_workload(task_set)
}

/// [`exhaustive_check`] for any demand-characterized workload: the natural
/// horizon is the component hyperperiod bound (`lcm` of the cycles plus the
/// largest first deadline), capped at `2²²` ticks.
#[must_use]
pub fn exhaustive_check_workload(workload: &(impl Workload + ?Sized)) -> Analysis {
    let prepared = PreparedWorkload::new(workload);
    let natural = hyperperiod_components(prepared.components());
    match natural {
        Some(h) if h.as_u64() <= DEFAULT_HORIZON_CAP => {
            exhaustive_check_prepared_up_to(&prepared, h, true)
        }
        _ => exhaustive_check_prepared_up_to(&prepared, Time::new(DEFAULT_HORIZON_CAP), false),
    }
}

/// Exhaustively checks the processor demand criterion for every integer
/// interval `1 ..= horizon`.
///
/// `horizon_is_exact` states whether the caller guarantees that the horizon
/// covers every possible violation (e.g. it is the hyperperiod plus the
/// largest deadline, or a valid feasibility bound); only then can the
/// function answer [`Verdict::Feasible`].
#[must_use]
pub fn exhaustive_check_up_to(
    task_set: &TaskSet,
    horizon: Time,
    horizon_is_exact: bool,
) -> Analysis {
    exhaustive_check_prepared_up_to(&PreparedWorkload::new(task_set), horizon, horizon_is_exact)
}

/// [`exhaustive_check_up_to`] on a prepared workload.
#[must_use]
pub fn exhaustive_check_prepared_up_to(
    workload: &PreparedWorkload,
    horizon: Time,
    horizon_is_exact: bool,
) -> Analysis {
    if workload.is_empty() {
        return Analysis::trivial(Verdict::Feasible);
    }
    // Mirrors `FeasibilityTest::analyze_prepared`: rejecting an
    // over-approximated decomposition proves nothing about the workload —
    // except through `U > 1` when the utilization is preserved.
    let reject = if workload.demand_is_exact() {
        Verdict::Infeasible
    } else {
        Verdict::Unknown
    };
    if workload.utilization_exceeds_one() {
        return Analysis::trivial(if workload.utilization_is_exact() {
            Verdict::Infeasible
        } else {
            reject
        });
    }
    let mut counter = IterationCounter::new();
    for interval in (1..=horizon.as_u64()).map(Time::new) {
        counter.record(interval);
        let demand = workload.dbf(interval);
        if demand > interval {
            let overload =
                (reject == Verdict::Infeasible).then_some(DemandOverload { interval, demand });
            return counter.finish(reject, overload);
        }
    }
    let verdict = if horizon_is_exact {
        Verdict::Feasible
    } else {
        Verdict::Unknown
    };
    counter.finish(verdict, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ProcessorDemandTest;
    use crate::FeasibilityTest;
    use edf_model::Task;

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn matches_processor_demand_on_small_sets() {
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]),
        ];
        for ts in sets {
            assert_eq!(
                exhaustive_check(&ts).verdict,
                ProcessorDemandTest::new().analyze(&ts).verdict,
                "disagreement on {ts}"
            );
        }
    }

    #[test]
    fn reports_the_earliest_violation() {
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let analysis = exhaustive_check(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        assert_eq!(analysis.overload.unwrap().interval, Time::new(6));
    }

    #[test]
    fn bounded_horizon_is_inconclusive_when_nothing_is_found() {
        let ts = TaskSet::from_tasks(vec![t(1, 5, 10)]);
        let analysis = exhaustive_check_up_to(&ts, Time::new(50), false);
        assert_eq!(analysis.verdict, Verdict::Unknown);
        assert_eq!(analysis.iterations, 50);
        let exact = exhaustive_check_up_to(&ts, Time::new(50), true);
        assert_eq!(exact.verdict, Verdict::Feasible);
    }

    #[test]
    fn huge_hyperperiods_fall_back_to_the_cap() {
        let ts = TaskSet::from_tasks(vec![t(1, 999_983, 999_983), t(1, 1_000_003, 1_000_003)]);
        let analysis = exhaustive_check(&ts);
        // No violation below the cap, but the cap is not a valid bound.
        assert_eq!(analysis.verdict, Verdict::Unknown);
    }

    #[test]
    fn trivial_paths() {
        assert_eq!(exhaustive_check(&TaskSet::new()).verdict, Verdict::Feasible);
        let over = TaskSet::from_tasks(vec![t(9, 9, 10), t(9, 9, 10)]);
        assert_eq!(exhaustive_check(&over).verdict, Verdict::Infeasible);
    }
}
