//! Benchmark of the `edf-serve` admission-control service: the cost of one
//! admission decision through the [`EditView`] delta path (structural
//! edit, deadline-order repair, in-place kernel rebuild, horizon refresh)
//! versus a cold re-preparation of the edited component list, and the
//! budgeted anytime lane.
//!
//! Both decision paths run the identical all-approximated exact analysis,
//! so the `whatif_*` gap is pure preparation overhead — exactly what an
//! admission server pays per request on its committed systems.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use edf_analysis::tests::AllApproximatedTest;
use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_analysis::{AnalysisScratch, FeasibilityTest, Workload};
use edf_bench::ratio_fixture;
use edf_model::{TaskSet, Time};
use edf_serve::{AdmissionService, SlaMode};

/// The committed base system of one tenant: a ratio-controlled sporadic
/// set, taken apart into demand components.
fn tenant_base(ratio: u64, seed_offset: usize) -> Vec<DemandComponent> {
    let sets: Vec<TaskSet> = ratio_fixture(ratio, seed_offset + 1);
    let mut components = Vec::new();
    sets[seed_offset].append_components(&mut components);
    components
}

/// The probe component every benchmark admits hypothetically: light
/// enough to keep the edited system feasible, so the analysis always runs
/// to a decisive verdict instead of an early `U > 1` exit.
fn probe() -> DemandComponent {
    DemandComponent::periodic(Time::new(1), Time::new(900), Time::new(1_000))
}

/// A large consolidation tenant: `n` light components with spread
/// deadlines and periods (total utilization `n`/2048 ≪ 1).  The exact
/// analysis decides such high-slack systems quickly, so the request cost
/// is dominated by preparation — the regime where the delta path's reuse
/// of the committed sort/horizon/kernel state matters most.
fn light_tenant(n: u64) -> Vec<DemandComponent> {
    (0..n)
        .map(|index| {
            DemandComponent::periodic(
                Time::new(1),
                Time::new(40 + (index * 13) % 400),
                Time::new(2_048 + 7 * index),
            )
        })
        .collect()
}

/// One what-if decision per request: the `editview` series answers it
/// through the service's delta path over the committed [`EditView`]; the
/// `cold_prepare` series re-prepares the edited component list from
/// scratch, which is what a view-less server would have to do.  The
/// parameter names the tenant: `ratio10`/`ratio100` are sporadic fixtures
/// with that period ratio, `n256`/`n1024` light consolidation tenants
/// with that many components.
fn bench_admission_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let test = AllApproximatedTest::new();
    let bases: Vec<(&str, Vec<DemandComponent>)> = vec![
        ("ratio10", tenant_base(10, 0)),
        ("ratio100", tenant_base(100, 0)),
        ("n256", light_tenant(256)),
        ("n1024", light_tenant(1024)),
    ];
    for (tenant, base) in bases {
        let mut service = AdmissionService::new();
        service
            .register_tenant("tenant", &PreparedWorkload::from_components(base.clone()))
            .expect("valid fixture base");
        // Warm the view's lazy state once so the loop measures steady
        // service operation, not first-touch preparation.
        service.what_if("tenant", probe()).expect("valid probe");
        group.bench_with_input(
            BenchmarkId::new("whatif_editview", tenant),
            &base,
            |b, _base| {
                b.iter(|| {
                    black_box(service.what_if("tenant", probe()))
                        .expect("valid probe")
                        .analysis
                })
            },
        );

        let mut scratch = AnalysisScratch::new();
        group.bench_with_input(
            BenchmarkId::new("whatif_cold_prepare", tenant),
            &base,
            |b, base| {
                b.iter(|| {
                    let mut edited = base.clone();
                    edited.push(probe());
                    let prepared = PreparedWorkload::from_components(edited);
                    black_box(test.analyze_prepared_with(&prepared, &mut scratch))
                })
            },
        );
    }
    group.finish();
}

/// The budgeted anytime lanes against the exact lane on the same tenant:
/// a generous budget runs the same exact test once, metered, to the
/// identical decisive verdict; a zero budget answers immediately with
/// `Unknown`.
/// The `units_*` lanes express the allowance directly in deterministic
/// work units ([`SlaMode::BudgetedUnits`]): `units_exhaust` measures the
/// exhaustion-answer latency (how fast a shed request unwinds through
/// the budget checkpoints to its honest `Unknown`), `units_generous`
/// the fully-metered decisive path.
fn bench_budgeted(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_budget");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let base = tenant_base(100, 0);
    let mut service = AdmissionService::new();
    service
        .register_tenant("tenant", &PreparedWorkload::from_components(base))
        .expect("valid fixture base");
    service.what_if("tenant", probe()).expect("valid probe");

    for (label, mode) in [
        ("exact", SlaMode::Exact),
        (
            "budget_1ms",
            SlaMode::Budgeted {
                deadline: Duration::from_millis(1),
            },
        ),
        (
            "budget_zero",
            SlaMode::Budgeted {
                deadline: Duration::ZERO,
            },
        ),
        ("units_exhaust", SlaMode::BudgetedUnits { units: 64 }),
        (
            "units_generous",
            SlaMode::BudgetedUnits { units: 1_000_000 },
        ),
    ] {
        service.set_mode(mode).expect("no journal attached");
        group.bench_function(BenchmarkId::new(label, 100u64), |b| {
            b.iter(|| {
                black_box(service.what_if("tenant", probe()))
                    .expect("valid probe")
                    .analysis
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_admission_paths, bench_budgeted);
criterion_main!(benches);
