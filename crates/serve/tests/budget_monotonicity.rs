//! Service-level budget monotonicity: a decisive verdict reached at a
//! work-unit allowance `B` is reproduced **identically** at every
//! allowance `B' ≥ B` — growing a request's budget can only convert
//! `Unknown`s into answers, never change an answer — across workload
//! families (periodic and one-shot components, light through overloaded)
//! spread over several tenants, plus tenants of a few dozen periodic
//! components near full utilization.  Every decisive budgeted analysis
//! is, bit for bit, the analysis Exact mode gives the same request.
//!
//! Allowances are expressed in [`SlaMode::BudgetedUnits`], so the whole
//! property is machine-independent: no wall clock, no calibration, the
//! same exhaustion point on every run.

use edf_analysis::workload::DemandComponent;
use edf_model::Time;
use edf_serve::{AdmissionService, SlaMode};
use proptest::prelude::*;

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Components keyed by the index of the tenant they go to.
type Placed = Vec<(usize, DemandComponent)>;

/// Both component families the protocol accepts: periodic and one-shot.
fn arb_component() -> impl Strategy<Value = DemandComponent> {
    (0u64..2, 1u64..=12, 1u64..=40, 2u64..=40).prop_map(|(family, cost, deadline, third)| {
        if family == 0 {
            DemandComponent::periodic(
                Time::new(cost.min(third)),
                Time::new(deadline),
                Time::new(third),
            )
        } else {
            DemandComponent::one_shot(Time::new(cost), Time::new(deadline), Time::new(third % 21))
        }
    })
}

/// Spreads components over the tenants round-robin.
fn round_robin(components: Vec<DemandComponent>) -> Placed {
    components
        .into_iter()
        .enumerate()
        .map(|(index, component)| (index % TENANTS.len(), component))
        .collect()
}

/// A small committed base plus probe components, spread over a few
/// tenants.
fn arb_small() -> impl Strategy<Value = (Placed, Placed)> {
    (
        prop::collection::vec(arb_component(), 0..=4),
        prop::collection::vec(arb_component(), 1..=5),
    )
        .prop_map(|(base, probes)| (round_robin(base), round_robin(probes)))
}

/// One tenant of 24–40 constrained-deadline periodic components whose
/// utilization sums to 88–97 %, probed with light periodic components:
/// the exact test has to refine many tasks over long intervals, which
/// is where a budgeted run could stop at a different analysis than the
/// exact one.
fn arb_medium() -> impl Strategy<Value = (Placed, Placed)> {
    let task = (20u64..=400, 1u64..=100, 40u64..=100);
    let probe = (1u64..=3, 10u64..=100, 0u64..=60);
    (
        prop::collection::vec(task, 24..=40),
        88u64..=97,
        prop::collection::vec(probe, 1..=3),
    )
        .prop_map(|(tasks, percent, probes)| {
            let weight: u64 = tasks.iter().map(|&(_, weight, _)| weight).sum();
            let base = tasks
                .into_iter()
                .map(|(period, share, slack)| {
                    let cost = (period * share * percent / (weight * 100)).max(1);
                    let deadline = cost + (period - cost) * slack / 100;
                    let component = DemandComponent::periodic(
                        Time::new(cost),
                        Time::new(deadline),
                        Time::new(period),
                    );
                    (0, component)
                })
                .collect();
            let probes = probes
                .into_iter()
                .map(|(cost, period, slack)| {
                    let period = period.max(4 * cost);
                    let deadline = cost + (period - cost) * (40 + slack) / 100;
                    let component = DemandComponent::periodic(
                        Time::new(cost),
                        Time::new(deadline),
                        Time::new(period),
                    );
                    (0, component)
                })
                .collect();
            (base, probes)
        })
}

/// Either family, evenly.
fn arb_scenario() -> impl Strategy<Value = (Placed, Placed)> {
    (0u8..2, arb_small(), arb_medium()).prop_map(
        |(family, small, medium)| {
            if family == 0 {
                small
            } else {
                medium
            }
        },
    )
}

/// Builds a service with `base` committed under exact mode (only the
/// feasible prefixes commit).
fn service_with(base: &Placed) -> AdmissionService {
    let mut service = AdmissionService::new();
    for &(tenant, component) in base {
        let _ = service
            .admit(TENANTS[tenant], component)
            .expect("no faults active");
    }
    service
}

proptest! {
    /// Walk a doubling allowance grid and pin that (a) every allowance
    /// is internally deterministic, (b) once any request's verdict
    /// turns decisive it stays that exact analysis for every larger
    /// allowance, and (c) that analysis is Exact mode's, bit for bit.
    #[test]
    fn decisive_verdicts_survive_any_larger_budget(
        scenario in arb_scenario(),
    ) {
        let (base, probes) = scenario;
        // What-ifs never mutate committed state, so one service answers
        // every allowance.
        let mut service = service_with(&base);
        let mut run = |mode: SlaMode| {
            service.set_mode(mode).expect("no journal attached");
            probes
                .iter()
                .map(|&(tenant, component)| {
                    service
                        .what_if(TENANTS[tenant], component)
                        .expect("valid component")
                        .analysis
                })
                .collect::<Vec<_>>()
        };
        let mut decisive = vec![None; probes.len()];
        let mut grid: Vec<u64> = (0..18).map(|power| 1u64 << power).collect();
        grid.insert(0, 0);
        grid.push(u64::MAX);
        for units in grid {
            let analyses = run(SlaMode::BudgetedUnits { units });
            prop_assert_eq!(
                &run(SlaMode::BudgetedUnits { units }), &analyses,
                "units={}: two runs at the same allowance diverged", units
            );
            for (index, analysis) in analyses.into_iter().enumerate() {
                if let Some(first) = &decisive[index] {
                    prop_assert_eq!(
                        &analysis, first,
                        "request {} at units={}: decisive analysis changed under a \
                         larger budget", index, units
                    );
                } else if analysis.verdict.is_decisive() {
                    decisive[index] = Some(analysis);
                }
            }
        }
        // Anchor against the uncapped exact mode: every decisive budgeted
        // analysis is the exact one (the top of the grid is effectively
        // unlimited), and the grid never decides a request the exact test
        // leaves open.
        for (index, exact) in run(SlaMode::Exact).into_iter().enumerate() {
            match &decisive[index] {
                Some(analysis) => prop_assert_eq!(
                    analysis, &exact,
                    "request {}: budgeted analysis differs from exact mode", index
                ),
                None => prop_assert!(
                    !exact.verdict.is_decisive(),
                    "request {} never decided but exact mode answers {:?}",
                    index, exact.verdict
                ),
            }
        }
    }
}
