//! Quick Processor-demand Analysis (QPA).
//!
//! **Extension beyond the paper.**  QPA (Zhang & Burns, 2009) post-dates
//! the DATE 2005 paper but solves the same problem — accelerating the exact
//! processor demand criterion — by iterating *downwards* from the
//! feasibility bound instead of walking every deadline upwards.  It is
//! included here as an additional exact baseline for the experiment
//! harness and the cross-validation property tests, and to let users of
//! the library compare both acceleration strategies.
//!
//! Starting from the largest absolute deadline below the feasibility bound
//! `La`, the value of `dbf(t)` itself is used as the next (smaller) test
//! interval; the iteration provably visits only a small subset of the
//! deadlines while preserving exactness.

use edf_model::Time;

use crate::analysis::{Analysis, DemandOverload, FeasibilityTest, IterationCounter, Verdict};
use crate::budget::ProgressPhase;
use crate::kernel::AnalysisScratch;
use crate::workload::PreparedWorkload;

/// The QPA exact feasibility test.
///
/// # Examples
///
/// ```
/// use edf_analysis::tests::QpaTest;
/// use edf_analysis::{FeasibilityTest, Verdict};
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(3), Time::new(10))?,
/// ]);
/// assert_eq!(QpaTest::new().analyze(&ts).verdict, Verdict::Feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpaTest;

impl QpaTest {
    /// Creates the test.
    #[must_use]
    pub fn new() -> Self {
        QpaTest
    }
}

impl FeasibilityTest for QpaTest {
    fn name(&self) -> &str {
        "qpa"
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn analyze_demand(
        &self,
        workload: &PreparedWorkload,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        if workload.is_empty() {
            return Analysis::trivial(Verdict::Feasible);
        }
        if workload.utilization_exceeds_one() {
            return Analysis::trivial(Verdict::Infeasible);
        }
        let Some(horizon) = workload.analysis_horizon() else {
            return Analysis::trivial(Verdict::Unknown);
        };
        let min_deadline = workload
            .min_first_deadline()
            .expect("non-empty workload has a minimum deadline");
        let mut budget = scratch.budget();
        let mut counter = IterationCounter::new();
        // Start just above the horizon so deadlines equal to it are included.
        let start = horizon.saturating_add(Time::ONE);
        let Some(mut t) = workload.last_deadline_below(start) else {
            return counter.finish(Verdict::Feasible, None);
        };
        // `demand == t` steps need the predecessor deadline as well as the
        // demand, and such plateau steps cluster: once one occurs, the next
        // step usually needs both again.  Inside a plateau run the kernel's
        // fused query delivers demand and predecessor in one pass over the
        // columns (the former code paid a second full scan and discarded
        // the already-computed demand); on ordinary descending steps —
        // the overwhelmingly common case — only the demand is evaluated.
        let mut on_plateau = false;
        let analysis = loop {
            // One work unit per descent step; the descent certifies
            // intervals *above* the current `t` only, so an exhausted run
            // reports no violation-free prefix.
            if !budget.charge(1) {
                break counter.finish_exhausted(&budget, ProgressPhase::QpaDescent, None, None);
            }
            counter.record(t);
            let (demand, predecessor) = if on_plateau {
                workload.demand_and_predecessor(t)
            } else {
                (workload.dbf(t), None)
            };
            if demand > t {
                break counter.finish(
                    Verdict::Infeasible,
                    Some(DemandOverload {
                        interval: t,
                        demand,
                    }),
                );
            }
            if demand <= min_deadline {
                break counter.finish(Verdict::Feasible, None);
            }
            t = if demand < t {
                on_plateau = false;
                demand
            } else {
                // demand == t: step down to the largest deadline below t.
                let prev = predecessor.or_else(|| workload.last_deadline_below(t));
                on_plateau = true;
                match prev {
                    Some(prev) => prev,
                    None => break counter.finish(Verdict::Feasible, None),
                }
            };
        };
        scratch.set_budget(budget);
        analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::dbf_set;
    use crate::tests::ProcessorDemandTest;
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn largest_deadline_below_enumerates_correctly() {
        let ts = TaskSet::from_tasks(vec![t(1, 3, 5), t(1, 4, 10)]);
        let prepared = PreparedWorkload::new(&ts);
        // deadlines: 3, 4, 8, 13, 14, 18, 23, 24, ...
        assert_eq!(
            prepared.last_deadline_below(Time::new(25)),
            Some(Time::new(24))
        );
        assert_eq!(
            prepared.last_deadline_below(Time::new(24)),
            Some(Time::new(23))
        );
        assert_eq!(
            prepared.last_deadline_below(Time::new(14)),
            Some(Time::new(13))
        );
        assert_eq!(
            prepared.last_deadline_below(Time::new(4)),
            Some(Time::new(3))
        );
        assert_eq!(prepared.last_deadline_below(Time::new(3)), None);
    }

    #[test]
    fn agrees_with_processor_demand_on_hand_picked_sets() {
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 2, 6), t(2, 4, 8), t(1, 7, 12)]),
            TaskSet::from_tasks(vec![t(5, 6, 20), t(7, 11, 25), t(4, 9, 35)]),
            TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]),
        ];
        for ts in sets {
            let qpa = QpaTest::new().analyze(&ts).verdict;
            let pda = ProcessorDemandTest::new().analyze(&ts).verdict;
            assert_eq!(qpa, pda, "QPA and PDA must agree on {ts}");
        }
    }

    #[test]
    fn typically_needs_fewer_iterations_than_processor_demand() {
        let ts = TaskSet::from_tasks(vec![
            t(2, 6, 20),
            t(3, 15, 45),
            t(5, 40, 100),
            t(40, 350, 400),
        ]);
        let qpa = QpaTest::new().analyze(&ts);
        let pda = ProcessorDemandTest::new().analyze(&ts);
        assert_eq!(qpa.verdict, pda.verdict);
        assert!(
            qpa.iterations <= pda.iterations,
            "QPA ({}) should not need more checks than PDA ({})",
            qpa.iterations,
            pda.iterations
        );
    }

    #[test]
    fn trivial_paths() {
        assert_eq!(
            QpaTest::new().analyze(&TaskSet::new()).verdict,
            Verdict::Feasible
        );
        let over = TaskSet::from_tasks(vec![t(9, 9, 10), t(9, 9, 10)]);
        assert_eq!(QpaTest::new().analyze(&over).verdict, Verdict::Infeasible);
        assert_eq!(QpaTest::new().name(), "qpa");
        assert!(QpaTest::new().is_exact());
    }

    #[test]
    fn infeasible_witness_is_a_real_violation() {
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let analysis = QpaTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        let w = analysis.overload.unwrap();
        assert_eq!(dbf_set(&ts, w.interval), w.demand);
        assert!(w.demand > w.interval);
    }
}
