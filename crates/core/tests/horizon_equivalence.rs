//! Property tests of the analysis horizon: the tightest §4.3 bound, as
//! computed without the dominated Baruah and superposition bounds and with
//! the busy-period fix-point cut once it cannot be the minimum, equals the
//! minimum of the full [`FeasibilityBounds`] — cold, and after every step
//! of each incremental view ([`EditView`], [`ScaledView`],
//! [`CandidateView`]).
//!
//! The generated lists cover one-shots, release offsets, `D > T`,
//! utilizations close to one from both sides, overload and the empty list.

use edf_analysis::bounds::{horizon_components, FeasibilityBounds};
use edf_analysis::candidates::CandidateView;
use edf_analysis::incremental::{EditView, ScaledView, WorkloadView};
use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_model::{Task, TaskSet, Time, Transaction, TransactionPart, TransactionSystem};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Periods drawn from the divisors of 60, so utilizations of exactly one
/// (and hyperperiods small enough to be the tightest bound) are common.
const PERIODS: [u64; 11] = [2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60];

/// The full-bounds minimum: the oracle every horizon is checked against.
fn full_horizon(components: &[DemandComponent]) -> Option<Time> {
    FeasibilityBounds::for_components(components).analysis_horizon()
}

/// An arbitrary component: synchronous periodic (`D` below, at or above
/// `T`), periodic with a release offset, or one-shot.  (The offline
/// proptest shim's `prop_oneof!` is homogeneous, so the variants share one
/// tuple strategy with a discriminant.)
fn arb_component() -> impl Strategy<Value = DemandComponent> {
    (
        0u8..=5,
        0usize..PERIODS.len(),
        1u64..=30,
        1u64..=90,
        0u64..=40,
    )
        .prop_map(|(kind, period, c, d, offset)| {
            let period = PERIODS[period];
            let wcet = Time::new(c.min(period));
            match kind {
                0..=3 => DemandComponent::periodic(wcet, Time::new(d), Time::new(period)),
                4 => DemandComponent::periodic_from(
                    wcet,
                    Time::new(d),
                    Time::new(period),
                    Time::new(offset % period),
                ),
                _ => DemandComponent::one_shot(wcet, Time::new(d), Time::new(offset)),
            }
        })
}

/// A synchronous periodic list topped up by one last component whose cost
/// brings the utilization to just below, exactly at or just above one —
/// where the busy period, George and the hyperperiod compete.
fn arb_near_full() -> impl Strategy<Value = Vec<DemandComponent>> {
    (
        prop::collection::vec((0usize..PERIODS.len(), 1u64..=6, 1u64..=70), 1..=6),
        0usize..PERIODS.len(),
        1u64..=70,
        0u8..=4,
    )
        .prop_map(|(rest, last_period, last_deadline, nudge)| {
            let mut components: Vec<DemandComponent> = rest
                .into_iter()
                .map(|(period, c, d)| {
                    let period = PERIODS[period];
                    DemandComponent::periodic(
                        Time::new(c.min(period)),
                        Time::new(d),
                        Time::new(period),
                    )
                })
                .collect();
            let used: f64 = components.iter().map(DemandComponent::utilization).sum();
            let period = PERIODS[last_period];
            let fill = (period as f64 * (1.0 - used)).floor().max(0.0) as u64;
            let wcet = (fill + u64::from(nudge)).saturating_sub(2).clamp(1, period);
            components.push(DemandComponent::periodic(
                Time::new(wcet),
                Time::new(last_deadline),
                Time::new(period),
            ));
            components
        })
}

fn arb_components() -> impl Strategy<Value = Vec<DemandComponent>> {
    (
        0u8..=2,
        prop::collection::vec(arb_component(), 0..=7),
        arb_near_full(),
    )
        .prop_map(|(kind, mixed, near_full)| match kind {
            0 => mixed,
            _ => near_full,
        })
}

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (
        0usize..PERIODS.len(),
        prop::collection::vec((0u64..=59, 1u64..=4, 1u64..=30), 1..=3),
    )
        .prop_filter_map("valid transaction", |(period, parts)| {
            let period = PERIODS[period].max(10);
            let parts: Vec<TransactionPart> = parts
                .into_iter()
                .map(|(o, c, d)| {
                    TransactionPart::new(Time::new(o % period), Time::new(c), Time::new(d))
                })
                .collect();
            Transaction::new(Time::new(period), parts).ok()
        })
}

fn arb_transaction_system() -> impl Strategy<Value = TransactionSystem> {
    (
        prop::collection::vec((0usize..PERIODS.len(), 1u64..=4, 1u64..=60), 0..=2),
        prop::collection::vec(arb_transaction(), 1..=3),
    )
        .prop_map(|(sporadic, transactions)| {
            let sporadic = sporadic
                .into_iter()
                .filter_map(|(period, c, d)| {
                    let period = PERIODS[period];
                    Task::from_ticks(c.min(period), d, period).ok()
                })
                .collect();
            TransactionSystem::new(TaskSet::from_tasks(sporadic), transactions)
        })
}

/// One structural edit; index-style operands are reduced modulo the live
/// component count when applied.
#[derive(Debug, Clone)]
enum Edit {
    Insert(DemandComponent),
    Remove(usize),
    Replace(usize, DemandComponent),
    Commit,
    Revert,
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (0u8..=8, arb_component(), 0usize..64).prop_map(|(kind, component, selector)| match kind {
        0..=2 => Edit::Insert(component),
        3 | 4 => Edit::Remove(selector),
        5 | 6 => Edit::Replace(selector, component),
        7 => Edit::Commit,
        _ => Edit::Revert,
    })
}

#[test]
fn empty_list_has_no_horizon() {
    assert_eq!(horizon_components(&[]), None);
    assert_eq!(full_horizon(&[]), None);
    assert_eq!(
        PreparedWorkload::from_components(Vec::new()).analysis_horizon(),
        None
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cold_horizon_equals_the_full_bounds_minimum(components in arb_components()) {
        let expected = full_horizon(&components);
        prop_assert_eq!(horizon_components(&components), expected);
        // The prepared workload caches the same value, whichever of the
        // horizon and the full bounds is asked for first.
        let prepared = PreparedWorkload::from_components(components.clone());
        prop_assert_eq!(prepared.analysis_horizon(), expected);
        let prepared = PreparedWorkload::from_components(components);
        prop_assert_eq!(prepared.bounds().analysis_horizon(), expected);
        prop_assert_eq!(prepared.analysis_horizon(), expected);
    }
}

proptest! {
    #[test]
    fn edit_view_horizon_tracks_every_edit(
        base in arb_components(),
        edits in prop::collection::vec(arb_edit(), 1..=16),
    ) {
        let mut view = EditView::new(&PreparedWorkload::from_components(base));
        for edit in edits {
            let len = view.components().len();
            match edit {
                Edit::Insert(component) => {
                    view.insert_component(component);
                }
                Edit::Remove(selector) if len > 0 => {
                    view.remove_component(selector % len);
                }
                Edit::Replace(selector, component) if len > 0 => {
                    view.replace_component(selector % len, component);
                }
                Edit::Commit => view.commit(),
                Edit::Revert => view.revert(),
                Edit::Remove(_) | Edit::Replace(..) => {}
            }
            let expected = full_horizon(view.components());
            prop_assert_eq!(view.prepared().analysis_horizon(), expected);
        }
    }

    #[test]
    fn scaled_view_horizon_tracks_every_probe(
        components in arb_components(),
        probes in prop::collection::vec((0u8..=1, 0u64..=3_000, 0usize..16, 0u64..=40), 1..=12),
    ) {
        let base = PreparedWorkload::from_components(components);
        let mut view = ScaledView::new(&base);
        for (kind, numer, selector, wcet) in probes {
            let len = base.components().len();
            let probed = if kind == 0 || len == 0 {
                view.scale_wcets(numer, 1_000)
            } else {
                view.with_component_wcet(selector % len, Time::new(wcet))
            };
            prop_assert_eq!(probed.analysis_horizon(), full_horizon(probed.components()));
        }
        view.revert();
        prop_assert_eq!(
            view.finalize().analysis_horizon(),
            full_horizon(base.components())
        );
    }

    #[test]
    fn candidate_view_horizon_tracks_every_swap(
        system in arb_transaction_system(),
        swaps in prop::collection::vec((0usize..8, 0usize..8), 1..=10),
    ) {
        let mut view = CandidateView::new(&system);
        prop_assert_eq!(
            view.prepared().analysis_horizon(),
            full_horizon(view.components())
        );
        for (transaction, candidate) in swaps {
            let transaction = transaction % system.transactions().len();
            let candidate = candidate % system.transactions()[transaction].candidate_count();
            view.set_candidate(transaction, candidate);
            let expected = full_horizon(view.components());
            prop_assert_eq!(view.prepared().analysis_horizon(), expected);
        }
    }
}
