//! Property tests of the structural-edit view's contract: any sequence of
//! [`EditView`] inserts, removals and replacements — interleaved with
//! [`ScaledView`] WCET probes over the intermediate states and with
//! commit/revert decisions — produces prepared state and analyses
//! **bit-identical** to a cold preparation of the edited component list,
//! across sporadic task sets, event streams and mixed systems.
//!
//! This is the admission-control loop's correctness argument: the
//! `edf-serve` admit / evict / what-if primitives are exactly these edit
//! sequences, so delta re-analysis through the view family can never
//! drift from the from-scratch answer.

use edf_analysis::all_tests;
use edf_analysis::incremental::{EditView, ScaledView, WorkloadView};
use edf_analysis::workload::{DemandComponent, MixedSystem, PreparedWorkload};
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

/// An arbitrary demand component: periodic (cost capped by the period,
/// mirroring task validation) or one-shot with a release offset.  (The
/// offline proptest shim's `prop_oneof!` is homogeneous, so the variants
/// share one tuple strategy with a discriminant.)
fn arb_component() -> impl Strategy<Value = DemandComponent> {
    (0u8..=1, 1u64..=10, 1u64..=60, 2u64..=80).prop_map(|(kind, c, d, x)| {
        if kind == 0 {
            DemandComponent::periodic(Time::new(c.min(x)), Time::new(d), Time::new(x))
        } else {
            DemandComponent::one_shot(Time::new(c.min(6)), Time::new(d.min(30)), Time::new(x % 21))
        }
    })
}

/// One step of an edit sequence.  Index-style operands are selectors
/// reduced modulo the live component count at application time, so every
/// generated sequence is valid against every base workload.
#[derive(Debug, Clone)]
enum EditStep {
    Insert(DemandComponent),
    Remove(usize),
    Replace(usize, DemandComponent),
    /// A `ScaledView` WCET probe over the finalized intermediate state
    /// (the sensitivity-search-inside-an-admission-loop interleaving).
    Probe(u64),
}

fn arb_step() -> impl Strategy<Value = EditStep> {
    (0u8..=7, arb_component(), 0usize..64, 0u64..=4_000).prop_map(
        |(kind, component, selector, numer)| match kind {
            // Inserts weighted up so sequences tend to grow past the base.
            0..=2 => EditStep::Insert(component),
            3 | 4 => EditStep::Remove(selector),
            5 | 6 => EditStep::Replace(selector, component),
            _ => EditStep::Probe(numer),
        },
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<EditStep>> {
    prop::collection::vec(arb_step(), 1..=12)
}

/// Asserts that the view's finalized state and a cold preparation of the
/// same component list are observably identical, including the analyses
/// of every registered test.  (`task_count` is intentionally exempt: the
/// view tracks the source workload's count across edits, while a cold
/// [`PreparedWorkload::from_components`] has no source workload — no
/// analysis reads it.)
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
            "{} diverges between edit view and cold preparation",
            test.name()
        );
    }
}

/// Applies `steps` to an [`EditView`] over `base` while mirroring the
/// edits in a plain component vector, checking bit-identity with the cold
/// preparation of the mirror after every finalize.
fn check_edit_sequence(base: &PreparedWorkload, steps: Vec<EditStep>) {
    let mut view = EditView::new(base);
    let mut mirror: Vec<DemandComponent> = base.components().to_vec();
    for step in steps {
        match step {
            EditStep::Insert(component) => {
                let index = view.insert_component(component);
                assert_eq!(index, mirror.len());
                mirror.push(component);
            }
            EditStep::Remove(selector) => {
                if mirror.is_empty() {
                    continue;
                }
                let index = selector % mirror.len();
                assert_eq!(view.remove_component(index), mirror.remove(index));
            }
            EditStep::Replace(selector, component) => {
                if mirror.is_empty() {
                    continue;
                }
                let index = selector % mirror.len();
                assert_eq!(view.replace_component(index, component), mirror[index]);
                mirror[index] = component;
            }
            EditStep::Probe(numer) => {
                let prepared = view.prepared();
                let mut scaled = ScaledView::new(prepared);
                let probed = scaled.scale_wcets(numer, 1_000);
                let cold = prepared.with_scaled_wcets(numer, 1_000);
                assert_prepared_identical(probed, &cold);
            }
        }
        let cold = PreparedWorkload::from_components(mirror.clone());
        assert_prepared_identical(view.prepared(), &cold);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Edit sequences over sporadic task sets are bit-identical to cold
    /// preparation after every step.
    #[test]
    fn edits_match_cold_preparation_on_task_sets(
        ts in arb_set(),
        steps in arb_steps(),
    ) {
        check_edit_sequence(&PreparedWorkload::new(&ts), steps);
    }

    /// ... and over event-stream workloads.
    #[test]
    fn edits_match_cold_preparation_on_event_streams(
        stream in arb_stream_task(),
        steps in arb_steps(),
    ) {
        check_edit_sequence(&PreparedWorkload::new(&stream), steps);
    }

    /// ... and over mixed systems.
    #[test]
    fn edits_match_cold_preparation_on_mixed_systems(
        system in arb_mixed(),
        steps in arb_steps(),
    ) {
        check_edit_sequence(&PreparedWorkload::new(&system), steps);
    }

    /// ... and growing out of an empty system, the admission service's
    /// cold-start path.
    #[test]
    fn edits_match_cold_preparation_from_empty(steps in arb_steps()) {
        check_edit_sequence(&PreparedWorkload::from_components(Vec::new()), steps);
    }

    /// Revert rolls any uncommitted suffix back to the last commit point
    /// exactly — the state after `revert` is bit-identical to a cold
    /// preparation of the committed components, no matter where the
    /// commit/revert boundary falls or whether the suffix was finalized.
    #[test]
    fn revert_restores_the_commit_point(
        system in arb_mixed(),
        steps in arb_steps(),
        boundary in 0usize..12,
        finalize_before_revert in 0u8..=1,
    ) {
        let base = PreparedWorkload::new(&system);
        let mut view = EditView::new(&base);
        let mut mirror: Vec<DemandComponent> = base.components().to_vec();
        let boundary = boundary.min(steps.len());
        for (position, step) in steps.into_iter().enumerate() {
            match step {
                EditStep::Insert(component) => {
                    view.insert_component(component);
                    if position < boundary {
                        mirror.push(component);
                    }
                }
                EditStep::Remove(selector) => {
                    let count = view.components().len();
                    if count > 0 {
                        let index = selector % count;
                        view.remove_component(index);
                        if position < boundary {
                            mirror.remove(index);
                        }
                    }
                }
                EditStep::Replace(selector, component) => {
                    let count = view.components().len();
                    if count > 0 {
                        let index = selector % count;
                        view.replace_component(index, component);
                        if position < boundary {
                            mirror[index] = component;
                        }
                    }
                }
                EditStep::Probe(_) => {}
            }
            if position + 1 == boundary {
                view.prepared();
                view.commit();
            }
        }
        if finalize_before_revert == 1 {
            view.prepared();
        }
        view.revert();
        prop_assert_eq!(view.components(), mirror.as_slice());
        let cold = PreparedWorkload::from_components(mirror.clone());
        assert_prepared_identical(view.prepared(), &cold);
    }
}
