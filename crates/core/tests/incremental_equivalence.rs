//! Property tests of the incremental sensitivity engine's contract: every
//! probe and every search through a [`ScaledView`] is **bit-identical** to
//! the from-scratch path it replaces —
//!
//! * a view probe produces the same prepared state (components, exact
//!   utilization comparison, §4.3 bounds, deadline order) and the same
//!   [`Analysis`] from every registered test as a cold re-preparation;
//! * `breakdown_scaling_workload` and `wcet_slack_workload` equal their
//!   naive [`sensitivity::reference`] implementations — across sporadic
//!   task sets, event streams and mixed systems;
//! * `sensitivity_sweep` equals the per-workload searches.

use edf_analysis::incremental::ScaledView;
use edf_analysis::sensitivity::{
    breakdown_scaling_workload, reference, sensitivity_sweep, wcet_slack, wcet_slack_workload,
};
use edf_analysis::tests::{AllApproximatedTest, ProcessorDemandTest, QpaTest};
use edf_analysis::workload::{MixedSystem, PreparedWorkload};
use edf_analysis::{all_tests, FeasibilityTest};
use edf_model::{EventStream, EventStreamTask, Task, TaskSet, Time};
use proptest::prelude::*;

fn arb_task() -> impl Strategy<Value = Task> {
    (1u64..=20, 1u64..=120, 2u64..=100).prop_filter_map("valid task", |(c, d, t)| {
        Task::from_ticks(c.min(t), d, t).ok()
    })
}

fn arb_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_task(), 1..=6).prop_map(TaskSet::from_tasks)
}

fn arb_stream_task() -> impl Strategy<Value = EventStreamTask> {
    (1u64..=3, 1u64..=6, 20u64..=80, 1u64..=4, 2u64..=25).prop_map(|(burst, inner, outer, c, d)| {
        EventStreamTask::new(
            EventStream::bursty(burst, Time::new(inner), Time::new(outer)),
            Time::new(c),
            Time::new(d),
        )
        .expect("positive parameters")
    })
}

fn arb_mixed() -> impl Strategy<Value = MixedSystem> {
    (arb_set(), prop::collection::vec(arb_stream_task(), 0..=2))
        .prop_map(|(ts, streams)| MixedSystem::new(ts, streams))
}

/// Asserts that a view probe and a cold preparation are observably
/// identical, including the analyses of all registered tests.
fn assert_prepared_identical(view: &PreparedWorkload, cold: &PreparedWorkload) {
    assert_eq!(view.components(), cold.components());
    assert_eq!(view.utilization().to_bits(), cold.utilization().to_bits());
    assert_eq!(
        view.utilization_exceeds_one(),
        cold.utilization_exceeds_one()
    );
    assert_eq!(view.analysis_horizon(), cold.bounds().analysis_horizon());
    assert_eq!(view.deadline_order(), cold.deadline_order());
    for test in all_tests() {
        assert_eq!(
            test.analyze_prepared(view),
            test.analyze_prepared(cold),
            "{} diverges between incremental view and cold preparation",
            test.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform-scaling probes reproduce `with_scaled_wcets` exactly, for
    /// any probe sequence (the searches probe in data-dependent order).
    #[test]
    fn scaling_probes_equal_cold_preparation(
        system in arb_mixed(),
        numers in prop::collection::vec(0u64..=16_000, 1..=8),
    ) {
        let base = PreparedWorkload::new(&system);
        let mut view = ScaledView::new(&base);
        for numer in numers {
            let probed = view.scale_wcets(numer, 1_000);
            let cold = base.with_scaled_wcets(numer, 1_000);
            assert_prepared_identical(probed, &cold);
        }
    }

    /// Breakdown searches through the view equal the re-preparing
    /// reference, on sporadic sets.
    #[test]
    fn breakdown_matches_reference_on_task_sets(ts in arb_set()) {
        for test in [
            Box::new(AllApproximatedTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(QpaTest::new()),
        ] {
            prop_assert_eq!(
                breakdown_scaling_workload(&ts, test.as_ref()),
                reference::breakdown_scaling_workload(&ts, test.as_ref()),
                "{} breakdown diverges on {}", test.name(), ts
            );
        }
    }

    /// ... and on event-stream / mixed systems.
    #[test]
    fn breakdown_matches_reference_on_mixed_systems(system in arb_mixed()) {
        let test = AllApproximatedTest::new();
        prop_assert_eq!(
            breakdown_scaling_workload(&system, &test),
            reference::breakdown_scaling_workload(&system, &test)
        );
    }

    /// Slack searches through the view equal the re-preparing reference
    /// for every component, and the `TaskSet` entry point stays a thin
    /// wrapper over the workload-generic search.
    #[test]
    fn wcet_slack_matches_reference(ts in arb_set()) {
        let test = ProcessorDemandTest::new();
        for index in 0..ts.len() + 1 {
            let incremental = wcet_slack_workload(&ts, index, &test);
            prop_assert_eq!(
                incremental,
                reference::wcet_slack_workload(&ts, index, &test),
                "component {} of {}", index, ts
            );
            prop_assert_eq!(incremental, wcet_slack(&ts, index, &test));
        }
    }

    /// Slack equivalence on mixed systems (stream components included).
    #[test]
    fn wcet_slack_matches_reference_on_mixed_systems(system in arb_mixed()) {
        let test = AllApproximatedTest::new();
        let components = PreparedWorkload::new(&system).components().len();
        for index in 0..components {
            prop_assert_eq!(
                wcet_slack_workload(&system, index, &test),
                reference::wcet_slack_workload(&system, index, &test),
                "component {}", index
            );
        }
    }

    /// The batch front end reports exactly what the individual searches
    /// report.
    #[test]
    fn sweep_matches_individual_searches(
        workloads in prop::collection::vec(arb_set(), 1..=4),
    ) {
        let test = AllApproximatedTest::new();
        let reports = sensitivity_sweep(&workloads, &test);
        prop_assert_eq!(reports.len(), workloads.len());
        for (workload, report) in workloads.iter().zip(&reports) {
            prop_assert_eq!(
                report.breakdown,
                breakdown_scaling_workload(workload, &test)
            );
            prop_assert_eq!(report.component_slack.len(), workload.len());
            for (index, slack) in report.component_slack.iter().enumerate() {
                prop_assert_eq!(*slack, wcet_slack_workload(workload, index, &test));
            }
        }
    }

    /// The slack really is the last feasible inflation for stream
    /// components too: applying it keeps the system accepted, one more
    /// tick does not (unless capped by the headroom).
    #[test]
    fn workload_slack_is_tight(system in arb_mixed(), pick in 0usize..16) {
        let test = ProcessorDemandTest::new();
        let base = PreparedWorkload::new(&system);
        // `arb_mixed` always carries at least one sporadic task.
        let count = base.components().len();
        let index = pick % count;
        if let Some(slack) = wcet_slack_workload(&system, index, &test) {
            let component = base.components()[index];
            let mut view = ScaledView::new(&base);
            let accepted = test
                .analyze_prepared(view.with_component_wcet(index, component.wcet() + slack))
                .verdict
                .is_feasible();
            prop_assert!(accepted, "slack {} not feasible at component {}", slack, index);
            let headroom = match component.period() {
                Some(period) => period.saturating_sub(component.wcet()),
                None => component
                    .first_deadline()
                    .saturating_sub(component.release_offset())
                    .saturating_sub(component.wcet()),
            };
            if slack < headroom {
                let over = test
                    .analyze_prepared(
                        view.with_component_wcet(index, component.wcet() + slack + Time::ONE),
                    )
                    .verdict
                    .is_feasible();
                prop_assert!(!over, "slack {} not maximal at component {}", slack, index);
            }
        }
    }

    /// Regression guard for the removed `.max(Time::ONE)` floor: a zero
    /// scaling through the view yields genuinely zero costs, utilization
    /// and demand (no silent inflation to one tick), on mixed systems
    /// where one stream task spawns several components sharing a cost.
    #[test]
    fn zero_scaling_probes_are_truly_zero(system in arb_mixed()) {
        let base = PreparedWorkload::new(&system);
        let mut view = ScaledView::new(&base);
        let zeroed = view.scale_wcets(0, 1_000);
        prop_assert!(zeroed.components().iter().all(|c| c.wcet().is_zero()));
        prop_assert_eq!(zeroed.utilization(), 0.0);
        prop_assert_eq!(zeroed.dbf(Time::new(100_000)), Time::ZERO);
    }
}
