//! Service-level budget monotonicity: a decisive verdict reached at a
//! work-unit allowance `B` is reproduced **identically** at every
//! allowance `B' ≥ B` — growing a request's budget can only convert
//! `Unknown`s into answers, never change an answer — across workload
//! families (periodic and one-shot components, light through overloaded)
//! spread over several tenants.
//!
//! Allowances are expressed in [`SlaMode::BudgetedUnits`], so the whole
//! property is machine-independent: no wall clock, no calibration, the
//! same exhaustion point on every run.

use edf_analysis::workload::DemandComponent;
use edf_model::Time;
use edf_serve::{AdmissionService, SlaMode};
use proptest::prelude::*;

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

/// A committed base plus probe components, spread over a few tenants.
fn arb_scenario() -> impl Strategy<Value = (Vec<DemandComponent>, Vec<DemandComponent>)> {
    (
        prop::collection::vec(arb_component(), 0..=4),
        prop::collection::vec(arb_component(), 1..=5),
    )
}

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Builds a service with `base` committed under exact mode (only the
/// feasible prefixes commit), then switched to a `units` allowance.
fn service_with(base: &[DemandComponent], units: u64) -> AdmissionService {
    let mut service = AdmissionService::new();
    for (index, &component) in base.iter().enumerate() {
        let tenant = TENANTS[index % TENANTS.len()];
        let _ = service.admit(tenant, component).expect("no faults active");
    }
    service
        .set_mode(SlaMode::BudgetedUnits { units })
        .expect("no journal attached");
    service
}

proptest! {
    /// Walk a doubling allowance grid and pin that (a) every allowance
    /// is internally deterministic, and (b) once any request's verdict
    /// turns decisive it stays that exact analysis for every larger
    /// allowance, the uncapped exact answer included.
    #[test]
    fn decisive_verdicts_survive_any_larger_budget(
        scenario in arb_scenario(),
    ) {
        let (base, probes) = scenario;
        let requests: Vec<(&str, DemandComponent)> = probes
            .iter()
            .enumerate()
            .map(|(index, &component)| (TENANTS[index % TENANTS.len()], component))
            .collect();
        let mut decisive = vec![None; requests.len()];
        let mut grid: Vec<u64> = (0..18).map(|power| 1u64 << power).collect();
        grid.insert(0, 0);
        grid.push(u64::MAX);
        for units in grid {
            let run = || {
                let mut service = service_with(&base, units);
                requests
                    .iter()
                    .map(|&(tenant, component)| {
                        service
                            .what_if(tenant, component)
                            .expect("valid component")
                            .analysis
                    })
                    .collect::<Vec<_>>()
            };
            let analyses = run();
            prop_assert_eq!(
                &run(), &analyses,
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
        // Anchor against the uncapped exact mode: whenever it decides, the
        // budget grid must have reached the same verdict (the top of the
        // grid is effectively unlimited), and the grid never decides a
        // request the exact test leaves open.
        let mut exact = service_with(&base, 0);
        exact.set_mode(SlaMode::Exact).expect("no journal attached");
        for (index, &(tenant, component)) in requests.iter().enumerate() {
            let verdict = exact
                .what_if(tenant, component)
                .expect("valid component")
                .analysis
                .verdict;
            match &decisive[index] {
                Some(analysis) => prop_assert_eq!(
                    analysis.verdict, verdict,
                    "request {}: budgeted decision disagrees with exact mode", index
                ),
                None => prop_assert!(
                    !verdict.is_decisive(),
                    "request {} never decided but exact mode answers {:?}",
                    index, verdict
                ),
            }
        }
    }
}
