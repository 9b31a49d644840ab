//! Feasibility bounds: upper limits on the intervals a demand-based test
//! has to examine (§4.3 of the paper).
//!
//! If the utilization is below 100 %, the demand bound function eventually
//! falls below the capacity line forever; a *feasibility bound* is any
//! interval length beyond which no violation can occur, so the exact tests
//! only need to examine deadlines below it.  This module implements the
//! bounds discussed in the paper and its references:
//!
//! * [`baruah_bound`] — Baruah et al.: `U/(1−U) · max(Tᵢ − Dᵢ)`;
//! * [`george_bound`] — George et al.: `Σ_{Dᵢ≤Tᵢ} (1 − Dᵢ/Tᵢ)·Cᵢ / (1 − U)`;
//! * [`busy_period`] — length of the synchronous processor busy period;
//! * [`hyperperiod_bound`] — `lcm(Tᵢ) + max Dᵢ` (always valid, often huge);
//! * [`superposition_bound`] — the bound implicitly reached by the
//!   all-approximated test (§4.3), `max(Dmax, George)`; the paper proves it
//!   coincides with the George bound whenever `Cτ ≤ Dτ`.
//!
//! Every bound is defined on [`DemandComponent`] lists (the canonical form
//! of any [`Workload`]), which is how the §4.3
//! derivations carry over to event-stream and mixed systems: a component
//! with cost `C`, first deadline `D'` and cycle `z` satisfies
//! `dbf(I) ≤ I·C/z + C·max(0, 1 − D'/z)`, exactly the per-task inequality
//! behind the George bound.  The sporadic-only bounds (Baruah needs every
//! component periodic; the busy period and hyperperiod arguments need the
//! classic synchronous pattern) return `None` for workloads outside their
//! domain, and [`FeasibilityBounds::analysis_horizon`] picks the tightest
//! of whatever is available.  The `TaskSet` entry points are thin wrappers
//! over the component forms.
//!
//! All bounds are rounded **up** to the next integer so that using them as
//! a search horizon can never cut off a violating deadline.
//!
//! # The analysis horizon
//!
//! The exact tests read one number from this module: the tightest bound.
//! Two of the five bounds can never be it.  George is never above Baruah
//! (Baruah's inequality is George's with every per-component slack raised
//! to `max(T − D)`) and never above the superposition bound
//! `max(Dmax, George)`.  [`horizon_components`] therefore computes only
//! `min(George, hyperperiod, busy period)`, and it stops the busy-period
//! fix-point as soon as an iterate reaches the smaller of the other two:
//! the iterates never decrease, so the busy period cannot be the minimum
//! from then on.  The full [`FeasibilityBounds`] (every bound, uncut) is
//! built only on request, for reports and for the equivalence tests.
//!
//! Search loops that re-derive the horizon of a workload after small
//! changes (breakdown scaling and slack probing in [`crate::sensitivity`],
//! candidate swaps, structural edits of an admission service) keep a
//! [`BoundRefresher`]: it caches the structural half of the computation
//! (the hyperperiod bound, George's degeneracy and the applicability flags
//! depend only on the timing parameters) and seeds the George search with
//! the previous probe's result, while staying bit-identical to the cold
//! computation.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::bounds;
//! use edf_analysis::workload::Workload;
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(2), Time::new(4), Time::new(10))?,
//!     Task::new(Time::new(3), Time::new(6), Time::new(15))?,
//! ]);
//! let all = bounds::FeasibilityBounds::compute(&ts);
//! assert!(all.analysis_horizon().is_some());
//! assert_eq!(
//!     bounds::horizon_components(&ts.demand_components()),
//!     all.analysis_horizon()
//! );
//! # Ok(())
//! # }
//! ```

use edf_model::{TaskSet, Time};

use crate::arith::{fracs_parts_le_integer_iter, Reciprocal};
use crate::budget::WorkBudget;
use crate::workload::{components_exceed_one, DemandComponent, Workload};

/// Convergence allowance of the busy-period fix-point, expressed as a
/// [`WorkBudget`] limit so bounds work is metered in the same units as
/// every other analysis loop: an overloaded set whose iteration diverges
/// is cut off after this many work units and reports "no bound"
/// (`None`), exactly as before the budget unification.
const BUSY_PERIOD_CONVERGENCE_UNITS: u64 = 100_000;

/// The collection of all implemented feasibility bounds for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityBounds {
    /// Baruah et al. bound, `None` if `U ≥ 1`, the workload has one-shot
    /// components, or no component has `D < T` (in which case the Liu &
    /// Layland argument applies instead).
    pub baruah: Option<Time>,
    /// George et al. bound, `None` if `U ≥ 1`.
    pub george: Option<Time>,
    /// Synchronous busy period, `None` outside the sporadic model or if the
    /// fix-point does not converge within the iteration budget (`U > 1`).
    pub busy_period: Option<Time>,
    /// `lcm(Tᵢ) + max Dᵢ`, `None` on overflow, one-shot components or an
    /// empty workload.
    pub hyperperiod: Option<Time>,
    /// Superposition bound of §4.3, `None` if `U ≥ 1`.
    pub superposition: Option<Time>,
}

impl FeasibilityBounds {
    /// Computes every bound for a sporadic task set.
    #[must_use]
    pub fn compute(task_set: &TaskSet) -> Self {
        FeasibilityBounds::for_components(&task_set.demand_components())
    }

    /// Computes every bound for an arbitrary component decomposition.  Use
    /// [`horizon_components`] when only the tightest bound is needed.
    #[must_use]
    pub fn for_components(components: &[DemandComponent]) -> Self {
        BoundRefresher::new(components).refresh(components)
    }

    /// [`FeasibilityBounds::for_components`] without the estimate-seeded
    /// searches: every bound is derived by the plain cold binary search of
    /// its standalone function (the pre-refresher behaviour).  Produces
    /// identical values — kept as the from-scratch baseline the
    /// `sensitivity` benchmark (and [`crate::sensitivity::reference`])
    /// measures the incremental engine against.
    #[must_use]
    pub fn for_components_cold(components: &[DemandComponent]) -> Self {
        FeasibilityBounds {
            baruah: baruah_components(components),
            george: george_components(components),
            busy_period: busy_period_components(components),
            hyperperiod: hyperperiod_components(components),
            superposition: superposition_components(components),
        }
    }

    /// The tightest available bound: the minimum over all bounds that could
    /// be computed, or `None` if none could (utilization ≥ 1 with an
    /// overflowing or undefined hyperperiod).
    #[must_use]
    pub fn analysis_horizon(&self) -> Option<Time> {
        [
            self.baruah,
            self.george,
            self.busy_period,
            self.hyperperiod,
            self.superposition,
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

/// The tightest feasibility bound of `components`, equal to
/// `FeasibilityBounds::for_components(components).analysis_horizon()` but
/// computed without the dominated Baruah and superposition bounds and with
/// the busy-period fix-point stopped once it cannot be the minimum (see
/// the [module documentation](self)).
#[must_use]
pub fn horizon_components(components: &[DemandComponent]) -> Option<Time> {
    BoundRefresher::new(components).horizon(components, components_exceed_one(components))
}

/// The structural half of the §4.3 bound computation, cached once so a
/// search loop can re-derive the analysis horizon (or, through
/// [`BoundRefresher::refresh`], every bound) of a perturbed component list
/// in (near) linear time instead of from cold.
///
/// Under any pure WCET change (uniform breakdown scaling, a single-component
/// slack probe) the periods, deadlines and offsets of a workload do not
/// move, and with them a surprising amount of the bound machinery is fixed:
/// the hyperperiod bound is WCET-free, George's degeneracy test and the
/// `Dmax` term of the superposition bound depend only on the timing
/// parameters, and the applicability of the busy period argument is
/// structural.  [`BoundRefresher::new`] computes all of that once; the
/// crate's views then refresh only the analysis horizon per probe (the
/// hint-seeded George search plus the cut busy-period fix-point), while
/// [`BoundRefresher::refresh`] rebuilds a full [`FeasibilityBounds`] for a
/// re-costed component list.  The searches gallop out from the previous
/// probe's results, so consecutive probes of a search loop typically pay a
/// handful of predicate evaluations instead of the cold 62-step searches.
///
/// Every refresh is **exact**: `refresh` returns bit-identical values to
/// [`FeasibilityBounds::for_components`] (which is, in fact, implemented
/// on top of it), and the horizon refreshes equal its
/// [`analysis_horizon`](FeasibilityBounds::analysis_horizon).  The
/// contract of `refresh` is that the refreshed list differs from the one
/// given to `new` only in the component WCETs.
///
/// # Examples
///
/// ```
/// use edf_analysis::bounds::{BoundRefresher, FeasibilityBounds};
/// use edf_analysis::workload::Workload;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(2), Time::new(4), Time::new(10))?,
///     Task::new(Time::new(3), Time::new(6), Time::new(15))?,
/// ]);
/// let components = ts.demand_components();
/// let mut refresher = BoundRefresher::new(&components);
/// assert_eq!(
///     refresher.refresh(&components),
///     FeasibilityBounds::for_components(&components)
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BoundRefresher {
    component_count: usize,
    /// `true` when every component is periodic with `D′ ≥ T` (the George
    /// bound then degenerates to the smallest deadline).
    george_degenerate: bool,
    min_first_deadline: Option<Time>,
    max_first_deadline: Option<Time>,
    /// The synchronous busy-period argument applies: non-empty, purely
    /// periodic, all released at the window start.
    busy_applicable: bool,
    /// The hyperperiod bound is WCET-free, hence computed exactly once.
    hyperperiod: Option<Time>,
    /// `lcm` of the periods (`None` when empty, one-shot components are
    /// present, or the lcm overflows) — invariant even under **deadline**
    /// perturbations, so [`BoundRefresher::horizon_retimed`] re-derives the
    /// hyperperiod bound without re-running the lcm chain.
    period_lcm: Option<Time>,
    /// One precomputed period reciprocal per component (one-shots get the
    /// divisor-1 sentinel), so every search-predicate evaluation divides
    /// by the scale-invariant periods via multiplies.
    reciprocals: Vec<Reciprocal>,
    baruah_hint: Option<Time>,
    george_hint: Option<Time>,
}

/// The timing-dependent (deadline/offset) aggregates of the §4.3 bound
/// machinery — the half that stays fixed under WCET perturbations but
/// moves under re-phasing.  One shared constructor serves
/// [`BoundRefresher::new`] and the retimed and edited refreshes, so the
/// per-aggregate rules cannot drift apart.
struct TimingAggregates {
    george_degenerate: bool,
    min_first_deadline: Option<Time>,
    max_first_deadline: Option<Time>,
    busy_applicable: bool,
}

impl TimingAggregates {
    fn of(components: &[DemandComponent]) -> Self {
        TimingAggregates {
            george_degenerate: components.iter().all(|c| match c.period() {
                Some(period) => c.first_deadline() >= period,
                None => false,
            }),
            min_first_deadline: components.iter().map(DemandComponent::first_deadline).min(),
            max_first_deadline: components.iter().map(DemandComponent::first_deadline).max(),
            busy_applicable: !components.is_empty()
                && !components
                    .iter()
                    .any(|c| c.period().is_none() || !c.release_offset().is_zero()),
        }
    }
}

impl BoundRefresher {
    /// Captures the scale-invariant aggregates of `components`.
    #[must_use]
    pub fn new(components: &[DemandComponent]) -> Self {
        let timing = TimingAggregates::of(components);
        let period_lcm = period_lcm(components);
        let hyperperiod = hyperperiod_from(period_lcm, timing.max_first_deadline);
        BoundRefresher {
            component_count: components.len(),
            george_degenerate: timing.george_degenerate,
            min_first_deadline: timing.min_first_deadline,
            max_first_deadline: timing.max_first_deadline,
            busy_applicable: timing.busy_applicable,
            hyperperiod,
            period_lcm,
            reciprocals: components
                .iter()
                .map(|c| Reciprocal::new(c.period().map_or(1, Time::as_u64)))
                .collect(),
            baruah_hint: None,
            george_hint: None,
        }
    }

    /// Installs freshly derived timing aggregates (and with them the
    /// `max D'` half of the hyperperiod bound).
    fn set_timing(&mut self, timing: &TimingAggregates) {
        self.george_degenerate = timing.george_degenerate;
        self.min_first_deadline = timing.min_first_deadline;
        self.max_first_deadline = timing.max_first_deadline;
        self.busy_applicable = timing.busy_applicable;
        self.hyperperiod = hyperperiod_from(self.period_lcm, timing.max_first_deadline);
    }

    /// The analysis horizon of a copy of the component list given to
    /// [`BoundRefresher::new`] whose **timing parameters** (offsets, hence
    /// first deadlines) moved but whose periods and component count did not
    /// — the candidate-swap contract of
    /// [`CandidateView`](crate::candidates::CandidateView), where every
    /// part keeps its cost and period but is re-phased within it.
    ///
    /// The deadline-dependent aggregates ([`TimingAggregates`], plus the
    /// `max D'` half of the hyperperiod bound) are re-derived in one linear
    /// pass; the period-only state (the lcm chain behind the hyperperiod
    /// bound, the per-component reciprocals feeding the George search) is
    /// reused.  `exceeds_one` is the caller's (exact) `U > 1` verdict —
    /// invariant under re-phasing, so candidate sweeps compute it once.
    pub(crate) fn horizon_retimed(
        &mut self,
        components: &[DemandComponent],
        exceeds_one: bool,
    ) -> Option<Time> {
        debug_assert_eq!(self.component_count, components.len());
        self.set_timing(&TimingAggregates::of(components));
        self.horizon(components, exceeds_one)
    }

    /// The analysis horizon after a **structural edit** — components
    /// inserted, removed or replaced wholesale, the contract of
    /// [`EditView`](crate::incremental::EditView).  Nothing captured by
    /// [`BoundRefresher::new`] is guaranteed to survive such an edit, so
    /// every aggregate (count, timing, the period-lcm chain behind the
    /// hyperperiod bound) is re-derived in one linear pass; only the
    /// search **hint** carries over — it merely seeds the galloping
    /// bracket, so the horizon stays exact while consecutive edits of a
    /// live system (whose bounds barely move) converge in a handful of
    /// predicate evaluations.  `reciprocals` is the caller's maintained
    /// per-component reciprocal cache (see
    /// [`EditView`](crate::incremental::EditView)), copied instead of
    /// re-deriving one 128-bit division per component.
    pub(crate) fn horizon_edited(
        &mut self,
        components: &[DemandComponent],
        exceeds_one: bool,
        reciprocals: &[Reciprocal],
    ) -> Option<Time> {
        debug_assert_eq!(components.len(), reciprocals.len());
        self.component_count = components.len();
        self.period_lcm = period_lcm(components);
        self.set_timing(&TimingAggregates::of(components));
        self.reciprocals.clear();
        self.reciprocals.extend_from_slice(reciprocals);
        self.horizon(components, exceeds_one)
    }

    /// Recomputes every bound for a WCET-perturbed copy of the component
    /// list given to [`BoundRefresher::new`]; equal to
    /// [`FeasibilityBounds::for_components`] on the same list.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) when the component count differs from the
    /// list the refresher was built from.
    #[must_use]
    pub fn refresh(&mut self, components: &[DemandComponent]) -> FeasibilityBounds {
        debug_assert!(
            self.invariants_match(components),
            "refreshed component list must differ from the prepared one only in WCETs"
        );
        let utilization_bounds_apply = !components.is_empty() && !components_exceed_one(components);
        let (baruah, george) = if utilization_bounds_apply {
            (
                self.refresh_baruah(components),
                self.refresh_george(components),
            )
        } else {
            (None, None)
        };
        let superposition = match (george, self.max_first_deadline) {
            (Some(g), Some(dmax)) => Some(g.max(dmax)),
            _ => None,
        };
        let busy_period = if self.busy_applicable {
            busy_period_fixpoint(components, None, &mut WorkBudget::unlimited())
        } else {
            None
        };
        FeasibilityBounds {
            baruah,
            george,
            busy_period,
            hyperperiod: self.hyperperiod,
            superposition,
        }
    }

    /// The analysis horizon of a WCET-perturbed copy of the component list
    /// given to [`BoundRefresher::new`] (the contract of
    /// [`BoundRefresher::refresh`]): `min(George, hyperperiod, busy
    /// period)`, with the fix-point cut at the smaller of the first two.
    /// `exceeds_one` is the caller's (exact) `U > 1` verdict.
    pub(crate) fn horizon(
        &mut self,
        components: &[DemandComponent],
        exceeds_one: bool,
    ) -> Option<Time> {
        debug_assert!(
            self.invariants_match(components),
            "refreshed component list must differ from the prepared one only in WCETs"
        );
        if exceeds_one {
            // George is undefined, and `rbf(L) ≥ U·L > L` for every
            // `L ≥ 1`, so the fix-point can only stop where its start `Σ C`
            // already saturates at `Time::MAX` (`rbf(MAX)` saturates too).
            let saturated = self.busy_applicable
                && components
                    .iter()
                    .fold(Time::ZERO, |acc, c| acc.saturating_add(c.wcet()))
                    == Time::MAX;
            return min_bound(self.hyperperiod, saturated.then_some(Time::MAX));
        }
        let george = if components.is_empty() {
            None
        } else {
            self.refresh_george(components)
        };
        let best = min_bound(george, self.hyperperiod);
        let busy_period = if self.busy_applicable {
            busy_period_fixpoint(components, best, &mut WorkBudget::unlimited())
        } else {
            None
        };
        min_bound(best, busy_period)
    }

    /// Debug-build contract check: re-derives every cached aggregate and
    /// compares, catching callers that changed timing parameters (periods,
    /// deadlines, offsets) between `new` and `refresh` — a violation that
    /// would otherwise yield silently wrong bounds.  (Not `cfg`-gated:
    /// `debug_assert!` still type-checks its condition in release builds.)
    fn invariants_match(&self, components: &[DemandComponent]) -> bool {
        let fresh = BoundRefresher::new(components);
        fresh.component_count == self.component_count
            && fresh.george_degenerate == self.george_degenerate
            && fresh.min_first_deadline == self.min_first_deadline
            && fresh.max_first_deadline == self.max_first_deadline
            && fresh.busy_applicable == self.busy_applicable
            && fresh.hyperperiod == self.hyperperiod
    }

    fn refresh_baruah(&mut self, components: &[DemandComponent]) -> Option<Time> {
        let max_diff = baruah_max_diff(components)?;
        // Floating-point prediction of `U/(1−U)·max_diff` as the search
        // seed: the galloping bracket makes the result exact no matter how
        // far off the estimate is, but an estimate within a few ulps turns
        // the search into a handful of predicate evaluations.
        let utilization: f64 = components.iter().map(DemandComponent::utilization).sum();
        let estimate = utilization / (1.0 - utilization) * max_diff.as_f64();
        let hint = hint_from_estimate(estimate).or(self.baruah_hint);
        let reciprocals = &self.reciprocals;
        let result = smallest_satisfying_hinted(
            |l| baruah_predicate_rcp(components, reciprocals, max_diff, l),
            hint,
        );
        if result.is_some() {
            self.baruah_hint = result;
        }
        result
    }

    fn refresh_george(&mut self, components: &[DemandComponent]) -> Option<Time> {
        if self.george_degenerate {
            // The numerator is zero: any positive horizon works; report the
            // smallest deadline so the caller has a non-trivial bound.
            return self.min_first_deadline;
        }
        // Floating-point prediction of `Σ(1 − Dᵢ/Tᵢ)·Cᵢ/(1−U)` as the
        // search seed (see `refresh_baruah` for why this stays exact).
        let mut numerator = 0.0f64;
        let mut utilization = 0.0f64;
        for c in components {
            match c.period() {
                Some(period) => {
                    let period = period.as_f64();
                    let slack = period - c.first_deadline().as_f64();
                    utilization += c.wcet().as_f64() / period;
                    if slack > 0.0 {
                        numerator += c.wcet().as_f64() * slack / period;
                    }
                }
                None => numerator += c.wcet().as_f64(),
            }
        }
        let hint = hint_from_estimate(numerator / (1.0 - utilization)).or(self.george_hint);
        let reciprocals = &self.reciprocals;
        let result =
            smallest_satisfying_hinted(|l| george_predicate_rcp(components, reciprocals, l), hint);
        if result.is_some() {
            self.george_hint = result;
        }
        result
    }
}

/// The smaller of two optional bounds (an absent bound never wins).
fn min_bound(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    a.into_iter().chain(b).min()
}

/// Baruah's `max(Tᵢ − Dᵢ)` aggregate; `None` when the bound is
/// inapplicable (empty list, a one-shot component, or a zero difference,
/// in which case the bound degenerates).
fn baruah_max_diff(components: &[DemandComponent]) -> Option<Time> {
    let mut max_diff = Time::ZERO;
    for component in components {
        max_diff = max_diff.max(
            component
                .period()?
                .saturating_sub(component.first_deadline()),
        );
    }
    (!max_diff.is_zero()).then_some(max_diff)
}

/// `lcm` of the component periods — the WCET- **and** deadline-invariant
/// half of the hyperperiod bound.  `None` when the list is empty, contains
/// a one-shot component, or the lcm overflows (mirroring
/// [`hyperperiod_components`], which equals `period_lcm + max D'`).
fn period_lcm(components: &[DemandComponent]) -> Option<Time> {
    if components.is_empty() {
        return None;
    }
    let mut lcm = Time::ONE;
    for component in components {
        lcm = lcm.lcm(component.period()?)?;
    }
    Some(lcm)
}

/// Converts a floating-point bound estimate into a search hint; `None`
/// when the estimate is useless (non-finite or outside the search range,
/// e.g. because `U ≥ 1` crept into the prediction).
fn hint_from_estimate(estimate: f64) -> Option<Time> {
    if estimate.is_finite() && (1.0..=BOUND_SEARCH_CAP as f64).contains(&estimate) {
        Some(Time::new(estimate.ceil() as u64))
    } else {
        None
    }
}

/// The Baruah bound's defining inequality
/// `Σ Cᵢ·(L + max(Tⱼ − Dⱼ))/Tᵢ ≤ L`, evaluated exactly and without
/// allocation.
fn baruah_predicate(components: &[DemandComponent], max_diff: Time, l: u64) -> bool {
    crate::arith::fracs_le_integer_iter(
        components.iter().map(|c| {
            (
                c.wcet().as_u128() * (u128::from(l) + max_diff.as_u128()),
                c.period()
                    .expect("Baruah applies to purely periodic workloads")
                    .as_u128(),
            )
        }),
        u128::from(l),
    )
}

/// The George bound's defining inequality
/// `Σᵢ Cᵢ·(L + slackᵢ)/Tᵢ + Σ_oneshot Cᵢ ≤ L`, evaluated exactly and
/// without allocation.
fn george_predicate(components: &[DemandComponent], l: u64) -> bool {
    crate::arith::fracs_le_integer_iter(
        components.iter().map(|c| match c.period() {
            Some(period) => {
                let slack = period.saturating_sub(c.first_deadline()).as_u128();
                (
                    c.wcet().as_u128() * (u128::from(l) + slack),
                    period.as_u128(),
                )
            }
            None => (c.wcet().as_u128(), 1),
        }),
        u128::from(l),
    )
}

/// [`baruah_predicate`] evaluated through the refresher's precomputed
/// period reciprocals (identical decisions; the pre-divided parts are
/// exact).
fn baruah_predicate_rcp(
    components: &[DemandComponent],
    reciprocals: &[Reciprocal],
    max_diff: Time,
    l: u64,
) -> bool {
    fracs_parts_le_integer_iter(
        components.iter().zip(reciprocals).map(|(c, &rcp)| {
            let period = c
                .period()
                .expect("Baruah applies to purely periodic workloads");
            let num = c.wcet().as_u128() * (u128::from(l) + max_diff.as_u128());
            rcp.divided_parts(num, period.as_u64())
        }),
        u128::from(l),
    )
}

/// [`george_predicate`] evaluated through the refresher's precomputed
/// period reciprocals (identical decisions).
fn george_predicate_rcp(
    components: &[DemandComponent],
    reciprocals: &[Reciprocal],
    l: u64,
) -> bool {
    fracs_parts_le_integer_iter(
        components
            .iter()
            .zip(reciprocals)
            .map(|(c, &rcp)| match c.period() {
                Some(period) => {
                    let slack = period.saturating_sub(c.first_deadline()).as_u128();
                    let num = c.wcet().as_u128() * (u128::from(l) + slack);
                    rcp.divided_parts(num, period.as_u64())
                }
                None => (c.wcet().as_u128(), 0, 1),
            }),
        u128::from(l),
    )
}

/// The busy-period fix-point iteration metered against a caller's
/// [`WorkBudget`]: every fix-point iteration charges one work unit.  The
/// historical non-convergence cut-off is itself a second, internal budget
/// of [`BUSY_PERIOD_CONVERGENCE_UNITS`], so overloaded sets are cut off
/// identically whether or not the caller's budget is limited.  Returns
/// `None` on overload, divergence, or caller-budget exhaustion — callers
/// that need to tell exhaustion apart inspect
/// [`WorkBudget::is_exhausted`] afterwards.
///
/// With a `cut`, the iteration also stops (returning `None`) as soon as an
/// iterate reaches it: the iterates never decrease and the busy period is
/// at least every iterate, so it is then no smaller than `cut`.
fn busy_period_fixpoint(
    components: &[DemandComponent],
    cut: Option<Time>,
    budget: &mut WorkBudget,
) -> Option<Time> {
    let mut convergence = WorkBudget::limited(BUSY_PERIOD_CONVERGENCE_UNITS);
    let mut length = components
        .iter()
        .fold(Time::ZERO, |acc, c| acc.saturating_add(c.wcet()));
    loop {
        if cut.is_some_and(|cut| length >= cut) {
            return None;
        }
        if !convergence.charge(1) || !budget.charge(1) {
            return None;
        }
        let next = components
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.rbf(length)));
        if next == length {
            return Some(length);
        }
        if next == Time::MAX {
            return None;
        }
        length = next;
    }
}

/// Upper limit of the bound binary searches (far beyond any realistic
/// feasibility bound; reaching it means the bound is undefined, e.g. U = 1).
const BOUND_SEARCH_CAP: u64 = 1 << 62;

/// Smallest `L ≥ 1` satisfying the monotone predicate, or `None` if even
/// `BOUND_SEARCH_CAP` does not satisfy it.
fn smallest_satisfying(mut predicate: impl FnMut(u64) -> bool) -> Option<Time> {
    if !predicate(BOUND_SEARCH_CAP) {
        return None;
    }
    let (mut lo, mut hi) = (1u64, BOUND_SEARCH_CAP);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if predicate(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(Time::new(lo))
}

/// [`smallest_satisfying`] seeded with a hint (typically the result of the
/// same search on a slightly perturbed workload): a bracket around the
/// answer is found by galloping out from the hint, so a hint close to the
/// answer replaces the 62-step cold binary search with a handful of
/// predicate evaluations.  Returns the same value as
/// [`smallest_satisfying`] for every monotone predicate.
fn smallest_satisfying_hinted(
    mut predicate: impl FnMut(u64) -> bool,
    hint: Option<Time>,
) -> Option<Time> {
    let Some(hint) = hint else {
        return smallest_satisfying(predicate);
    };
    let hint = hint.as_u64().clamp(1, BOUND_SEARCH_CAP);
    let (lo, hi) = if predicate(hint) {
        // The answer is in [1, hint]: gallop downward for an excluded point.
        let mut hi = hint;
        let mut lo = 0u64;
        let mut width = 1u64;
        loop {
            let candidate = hint.saturating_sub(width).max(1);
            if candidate >= hi {
                break;
            }
            if predicate(candidate) {
                hi = candidate;
                width = width.saturating_mul(2);
            } else {
                lo = candidate;
                break;
            }
        }
        (lo, hi)
    } else {
        // The answer is above the hint: gallop upward for a satisfying one.
        let mut lo = hint;
        let mut width = 1u64;
        let hi = loop {
            let candidate = hint.saturating_add(width).min(BOUND_SEARCH_CAP);
            if candidate <= lo {
                return None; // saturated at the cap without satisfying
            }
            if predicate(candidate) {
                break candidate;
            }
            if candidate == BOUND_SEARCH_CAP {
                return None;
            }
            lo = candidate;
            width = width.saturating_mul(2);
        };
        (lo, hi)
    };
    let (mut lo, mut hi) = (lo, hi);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if predicate(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(Time::new(hi))
}

/// Baruah et al. feasibility bound `U/(1−U) · max(Tᵢ − Dᵢ)` (Def. 3),
/// rounded up.
///
/// Internally the bound is found as the smallest integer `L` with
/// `Σ Cᵢ·(L + max(Tⱼ − Dⱼ))/Tᵢ ≤ L`, which is algebraically the same
/// inequality but can be evaluated exactly with
/// [`fracs_le_integer`](crate::arith::fracs_le_integer) — no common
/// denominator of all periods is ever formed, so the computation cannot
/// overflow for realistic task sets.
///
/// Returns `None` when the bound is undefined: `U ≥ 1`, or every task has
/// `Dᵢ ≥ Tᵢ` (the bound degenerates to zero; callers should rely on
/// another bound).
#[must_use]
pub fn baruah_bound(task_set: &TaskSet) -> Option<Time> {
    baruah_components(&task_set.demand_components())
}

/// [`baruah_bound`] on an arbitrary component decomposition.  The per-task
/// inequality `dbf(I, τ) ≤ Uτ·(I + (T − D))` holds for any periodic
/// component (offsets are folded into the first deadline), but not for
/// one-shots, so workloads containing one-shot components return `None`.
#[must_use]
pub fn baruah_components(components: &[DemandComponent]) -> Option<Time> {
    if components.is_empty() || components_exceed_one(components) {
        return None;
    }
    let max_diff = baruah_max_diff(components)?;
    smallest_satisfying(|l| baruah_predicate(components, max_diff, l))
}

/// George et al. feasibility bound `Σ_{Dᵢ≤Tᵢ} (1 − Dᵢ/Tᵢ)·Cᵢ / (1 − U)`,
/// rounded up.
///
/// Internally the bound is found as the smallest integer `L` with
/// `Σᵢ Cᵢ·L/Tᵢ + Σ_{Dᵢ≤Tᵢ} (Tᵢ − Dᵢ)·Cᵢ/Tᵢ ≤ L`, evaluated exactly with
/// [`fracs_le_integer`](crate::arith::fracs_le_integer).
///
/// Returns `None` when `U ≥ 1`.
#[must_use]
pub fn george_bound(task_set: &TaskSet) -> Option<Time> {
    george_components(&task_set.demand_components())
}

/// [`george_bound`] on an arbitrary component decomposition: periodic
/// components contribute the usual `(T − D')·C/T` slack term (clamped at
/// zero), one-shot components a constant `C`.
#[must_use]
pub fn george_components(components: &[DemandComponent]) -> Option<Time> {
    if components.is_empty() || components_exceed_one(components) {
        return None;
    }
    let degenerate = components.iter().all(|c| match c.period() {
        Some(period) => c.first_deadline() >= period,
        None => false,
    });
    if degenerate {
        // The numerator is zero: any positive horizon works; report the
        // smallest deadline so the caller has a non-trivial bound.
        return components.iter().map(DemandComponent::first_deadline).min();
    }
    smallest_satisfying(|l| george_predicate(components, l))
}

/// Length of the synchronous processor busy period: the smallest fix-point
/// of `L = Σ ⌈L/Tᵢ⌉·Cᵢ` starting from `L₀ = Σ Cᵢ`.
///
/// Any EDF deadline miss of the synchronous arrival pattern happens inside
/// the first busy period, so its length is a valid feasibility bound.
/// Returns `None` if the iteration does not converge within an internal
/// budget (which happens for overloaded sets).
#[must_use]
pub fn busy_period(task_set: &TaskSet) -> Option<Time> {
    busy_period_components(&task_set.demand_components())
}

/// [`busy_period`] on a component decomposition.  The synchronous-pattern
/// argument is specific to the sporadic model, so this returns `None`
/// whenever a component is one-shot or released after the window start.
#[must_use]
pub fn busy_period_components(components: &[DemandComponent]) -> Option<Time> {
    busy_period_components_with(components, &mut WorkBudget::unlimited())
}

/// [`busy_period_components`] metered against a caller's [`WorkBudget`]
/// (one unit per fix-point iteration).  Returns `None` when the bound is
/// inapplicable, diverges, or the budget runs out mid-iteration; the
/// caller distinguishes the last case via [`WorkBudget::is_exhausted`].
pub fn busy_period_components_with(
    components: &[DemandComponent],
    budget: &mut WorkBudget,
) -> Option<Time> {
    if components.is_empty()
        || components
            .iter()
            .any(|c| c.period().is_none() || !c.release_offset().is_zero())
    {
        return None;
    }
    busy_period_fixpoint(components, None, budget)
}

/// `lcm(Tᵢ) + max Dᵢ`: a bound that is always valid (violations of the
/// synchronous pattern repeat with the hyperperiod), but typically far
/// larger than the others.  `None` if the hyperperiod overflows.
#[must_use]
pub fn hyperperiod_bound(task_set: &TaskSet) -> Option<Time> {
    hyperperiod_components(&task_set.demand_components())
}

/// [`hyperperiod_bound`] on a component decomposition: the demand pattern
/// of periodic components (offsets included) repeats with the lcm of the
/// cycles, so `lcm + max D'` stays valid; one-shot components break the
/// periodicity and yield `None`.
#[must_use]
pub fn hyperperiod_components(components: &[DemandComponent]) -> Option<Time> {
    hyperperiod_from(
        period_lcm(components),
        components.iter().map(DemandComponent::first_deadline).max(),
    )
}

/// Combines the two halves of the hyperperiod bound (`None` when either is
/// undefined or the sum overflows).
fn hyperperiod_from(period_lcm: Option<Time>, max_first_deadline: Option<Time>) -> Option<Time> {
    period_lcm?.checked_add(max_first_deadline?)
}

/// The superposition feasibility bound of §4.3: the interval from which on
/// the all-approximated test can approximate every task and still stay
/// below the capacity, `max(Dmax, Σ(1 − Dᵢ/Tᵢ)·Cᵢ / (1 − U))`.
///
/// For `Cτ ≤ Dτ` this equals the George et al. bound (that is the paper's
/// point: the George bound is implied by — and checked implicitly in — the
/// new test); it is never larger than `max(Dmax, George)`.
#[must_use]
pub fn superposition_bound(task_set: &TaskSet) -> Option<Time> {
    superposition_components(&task_set.demand_components())
}

/// [`superposition_bound`] on an arbitrary component decomposition.
#[must_use]
pub fn superposition_components(components: &[DemandComponent]) -> Option<Time> {
    let george = george_components(components)?;
    let dmax = components
        .iter()
        .map(DemandComponent::first_deadline)
        .max()?;
    Some(george.max(dmax))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::dbf_set;
    use crate::workload::PreparedWorkload;
    use edf_model::{EventStream, EventStreamTask, Task};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn constrained_set() -> TaskSet {
        TaskSet::from_tasks(vec![t(2, 4, 10), t(3, 6, 15), t(4, 20, 40)])
    }

    #[test]
    fn baruah_matches_hand_computation() {
        let ts = constrained_set();
        // U = 0.2 + 0.2 + 0.1 = 0.5; max(T-D) = 20; bound = 0.5/0.5*20 = 20.
        assert_eq!(baruah_bound(&ts), Some(Time::new(20)));
    }

    #[test]
    fn george_matches_hand_computation() {
        let ts = constrained_set();
        // numerator = (6/10)*2 + (9/15)*3 + (20/40)*4 = 1.2 + 1.8 + 2 = 5
        // bound = 5 / 0.5 = 10
        assert_eq!(george_bound(&ts), Some(Time::new(10)));
    }

    #[test]
    fn george_never_exceeds_baruah() {
        // Known analytic relations for constrained-deadline sets; the
        // horizon computation drops Baruah and superposition because of
        // them.
        let sets = vec![
            constrained_set(),
            TaskSet::from_tasks(vec![t(1, 3, 8), t(2, 5, 12), t(3, 9, 30), t(1, 2, 5)]),
            TaskSet::from_tasks(vec![t(5, 10, 100), t(30, 80, 100)]),
        ];
        for ts in sets {
            let g = george_bound(&ts).unwrap();
            let b = baruah_bound(&ts).unwrap();
            let s = superposition_bound(&ts).unwrap();
            assert!(g <= b, "George {g} must be <= Baruah {b}");
            assert!(g <= s, "George {g} must be <= superposition {s}");
        }
    }

    #[test]
    fn horizon_keeps_the_busy_period_when_it_is_tightest() {
        // constrained_set: busy period 9, George 10, Baruah 20.
        let components = constrained_set().demand_components();
        assert_eq!(horizon_components(&components), Some(Time::new(9)));
    }

    #[test]
    fn horizon_of_a_saturated_overload_matches_the_full_bounds() {
        // U = 2 with Σ C saturating at Time::MAX: the uncut fix-point
        // "converges" at its start, so the full horizon is Time::MAX.
        let components = vec![
            DemandComponent::periodic(Time::MAX, Time::MAX, Time::MAX),
            DemandComponent::periodic(Time::MAX, Time::MAX, Time::MAX),
        ];
        let full = FeasibilityBounds::for_components(&components);
        assert_eq!(full.busy_period, Some(Time::MAX));
        assert_eq!(horizon_components(&components), full.analysis_horizon());
        // An overload that does not saturate has only the hyperperiod.
        let components = TaskSet::from_tasks(vec![t(5, 5, 5), t(1, 10, 10)]).demand_components();
        assert_eq!(
            horizon_components(&components),
            hyperperiod_components(&components)
        );
    }

    #[test]
    fn implicit_deadline_set_bounds() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 4), t(1, 6, 6)]);
        // No task with D < T: Baruah degenerates.
        assert_eq!(baruah_bound(&ts), None);
        // George falls back to the smallest deadline.
        assert_eq!(george_bound(&ts), Some(Time::new(4)));
        assert_eq!(superposition_bound(&ts), Some(Time::new(6)));
        assert_eq!(busy_period(&ts), Some(Time::new(2)));
        assert_eq!(hyperperiod_bound(&ts), Some(Time::new(12 + 6)));
    }

    #[test]
    fn overloaded_set_has_no_utilization_bounds() {
        let ts = TaskSet::from_tasks(vec![t(5, 5, 5), t(1, 10, 10)]);
        assert!(ts.utilization_exceeds_one());
        assert_eq!(baruah_bound(&ts), None);
        assert_eq!(george_bound(&ts), None);
        assert_eq!(superposition_bound(&ts), None);
        assert_eq!(busy_period(&ts), None, "busy period diverges");
        // The hyperperiod bound still exists.
        assert!(hyperperiod_bound(&ts).is_some());
        // And the combined horizon falls back to it.
        let all = FeasibilityBounds::compute(&ts);
        assert_eq!(all.analysis_horizon(), hyperperiod_bound(&ts));
    }

    #[test]
    fn full_utilization_set() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 2), t(1, 2, 2)]);
        assert_eq!(baruah_bound(&ts), None);
        // All deadlines are implicit, so no interval ever needs checking and
        // the George bound degenerates to the smallest deadline.
        assert_eq!(george_bound(&ts), Some(Time::new(2)));
        // Busy period exists and equals 2 (the processor is never idle but
        // the fix-point converges at the hyperperiod).
        assert_eq!(busy_period(&ts), Some(Time::new(2)));
        assert!(FeasibilityBounds::compute(&ts).analysis_horizon().is_some());
    }

    #[test]
    fn busy_period_fixpoint_examples() {
        let ts = constrained_set();
        // L0 = 9; rbf(9) = 2+3+4 = 9 -> converges at 9.
        assert_eq!(busy_period(&ts), Some(Time::new(9)));

        let ts2 = TaskSet::from_tasks(vec![t(3, 5, 5), t(2, 10, 10)]);
        // L0=5, rbf(5)=3+2=5 ... converges at 5? rbf(5)=ceil(5/5)*3+ceil(5/10)*2=3+2=5. yes.
        assert_eq!(busy_period(&ts2), Some(Time::new(5)));
    }

    #[test]
    fn busy_period_dominates_any_violation() {
        // For feasible sets the busy period is a valid horizon: no violation
        // can exist beyond it. We check the weaker sanity property that dbf
        // never exceeds the interval after the busy period for this set.
        let ts = constrained_set();
        let bp = busy_period(&ts).unwrap();
        for i in bp.as_u64()..bp.as_u64() + 100 {
            assert!(dbf_set(&ts, Time::new(i)) <= Time::new(i));
        }
    }

    #[test]
    fn empty_set_has_no_bounds() {
        let ts = TaskSet::new();
        let all = FeasibilityBounds::compute(&ts);
        assert_eq!(all.baruah, None);
        assert_eq!(all.george, None);
        assert_eq!(all.busy_period, None);
        assert_eq!(all.hyperperiod, None);
        assert_eq!(all.superposition, None);
        assert_eq!(all.analysis_horizon(), None);
    }

    #[test]
    fn horizon_is_minimum_of_available_bounds() {
        let ts = constrained_set();
        let all = FeasibilityBounds::compute(&ts);
        let horizon = all.analysis_horizon().unwrap();
        for candidate in [
            all.baruah,
            all.george,
            all.busy_period,
            all.hyperperiod,
            all.superposition,
        ]
        .into_iter()
        .flatten()
        {
            assert!(horizon <= candidate);
        }
        assert_eq!(horizon, Time::new(9)); // busy period is tightest here
    }

    #[test]
    fn superposition_is_max_of_george_and_dmax() {
        let ts = constrained_set();
        assert_eq!(
            superposition_bound(&ts),
            Some(george_bound(&ts).unwrap().max(ts.max_deadline().unwrap()))
        );
    }

    #[test]
    fn bounds_are_safe_horizons_for_feasible_and_infeasible_sets() {
        // An infeasible constrained-deadline set: the first violation must
        // lie below every computed bound.
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let mut first_violation = None;
        for i in 1..2_000u64 {
            if dbf_set(&ts, Time::new(i)) > Time::new(i) {
                first_violation = Some(Time::new(i));
                break;
            }
        }
        let violation = first_violation.expect("set is infeasible");
        let all = FeasibilityBounds::compute(&ts);
        for bound in [
            all.baruah,
            all.george,
            all.busy_period,
            all.hyperperiod,
            all.superposition,
        ]
        .into_iter()
        .flatten()
        {
            assert!(
                violation <= bound,
                "violation at {violation} must not exceed bound {bound}"
            );
        }
    }

    #[test]
    fn stream_workload_bounds_are_safe_horizons() {
        // A mixed workload: the George-style bound must dominate every
        // demand violation-free region boundary; check dbf <= I beyond the
        // horizon over a window.
        let stream = EventStreamTask::new(
            EventStream::bursty(3, Time::new(5), Time::new(100)),
            Time::new(4),
            Time::new(20),
        )
        .unwrap();
        let prepared = PreparedWorkload::new(&stream);
        let bounds = FeasibilityBounds::for_components(prepared.components());
        // Baruah and busy period do not apply to offset components.
        assert_eq!(bounds.busy_period, None);
        let george = bounds.george.expect("utilization far below 1");
        let hyper = bounds.hyperperiod.expect("purely periodic tuples");
        assert_eq!(hyper, Time::new(100 + 30));
        for i in george.as_u64()..george.as_u64() + 200 {
            assert!(prepared.dbf(Time::new(i)) <= Time::new(i));
        }
    }

    #[test]
    fn cold_and_seeded_bound_computations_agree() {
        let base = constrained_set().demand_components();
        for (numer, denom) in [(1u64, 1u64), (2, 1), (1, 2), (3, 1), (1, 10)] {
            let scaled: Vec<DemandComponent> = base
                .iter()
                .map(|c| {
                    let mut c = *c;
                    c.set_wcet(c.scaled_wcet(numer, denom));
                    c
                })
                .collect();
            assert_eq!(
                FeasibilityBounds::for_components(&scaled),
                FeasibilityBounds::for_components_cold(&scaled),
                "scaling {numer}/{denom}"
            );
        }
        let mixed = vec![
            DemandComponent::periodic(Time::new(1), Time::new(4), Time::new(10)),
            DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
        ];
        assert_eq!(
            FeasibilityBounds::for_components(&mixed),
            FeasibilityBounds::for_components_cold(&mixed)
        );
    }

    #[test]
    fn hinted_search_matches_cold_search_for_monotone_predicates() {
        for threshold in [1u64, 2, 3, 10, 57, 1_000, 1 << 40, BOUND_SEARCH_CAP] {
            let pred = |l: u64| l >= threshold;
            let cold = smallest_satisfying(pred);
            assert_eq!(cold, Some(Time::new(threshold)));
            assert_eq!(smallest_satisfying_hinted(pred, None), cold);
            for hint in [
                1u64,
                2,
                threshold.saturating_sub(7).max(1),
                threshold.saturating_sub(1).max(1),
                threshold,
                threshold.saturating_add(1),
                threshold.saturating_add(123),
                1 << 45,
                BOUND_SEARCH_CAP,
            ] {
                assert_eq!(
                    smallest_satisfying_hinted(pred, Some(Time::new(hint))),
                    cold,
                    "threshold {threshold}, hint {hint}"
                );
            }
        }
        // Unsatisfiable predicate: both searches report None.
        let never = |_: u64| false;
        assert_eq!(smallest_satisfying(never), None);
        for hint in [1u64, 100, BOUND_SEARCH_CAP] {
            assert_eq!(
                smallest_satisfying_hinted(never, Some(Time::new(hint))),
                None
            );
        }
    }

    #[test]
    fn refresher_matches_cold_bounds_across_wcet_perturbations() {
        let base = constrained_set().demand_components();
        let mut refresher = BoundRefresher::new(&base);
        // A sequence of perturbations, including overload (U > 1), reusing
        // one refresher so the hint paths are exercised.
        let scalings: [(u64, u64); 7] = [(1, 1), (2, 1), (1, 2), (3, 1), (7, 2), (1, 10), (1, 1)];
        for (numer, denom) in scalings {
            let scaled: Vec<DemandComponent> = base
                .iter()
                .map(|c| {
                    let mut c = *c;
                    c.set_wcet(c.scaled_wcet(numer, denom));
                    c
                })
                .collect();
            let cold = FeasibilityBounds::for_components(&scaled);
            assert_eq!(refresher.refresh(&scaled), cold, "scaling {numer}/{denom}");
            assert_eq!(
                refresher.horizon(&scaled, components_exceed_one(&scaled)),
                cold.analysis_horizon(),
                "scaling {numer}/{denom}"
            );
        }
        // Single-component probes (the wcet_slack pattern).
        for extra in [0u64, 1, 3, 5, 30] {
            let mut perturbed = base.clone();
            let inflated = perturbed[1].wcet() + Time::new(extra);
            perturbed[1].set_wcet(inflated);
            assert_eq!(
                refresher.refresh(&perturbed),
                FeasibilityBounds::for_components(&perturbed),
                "extra {extra}"
            );
        }
        // Mixed periodic/one-shot workloads go through the refresher too.
        let mixed = vec![
            DemandComponent::periodic(Time::new(1), Time::new(4), Time::new(10)),
            DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
        ];
        let mut refresher = BoundRefresher::new(&mixed);
        for wcet in [1u64, 2, 4, 9] {
            let mut perturbed = mixed.clone();
            perturbed[0].set_wcet(Time::new(wcet));
            assert_eq!(
                refresher.refresh(&perturbed),
                FeasibilityBounds::for_components(&perturbed)
            );
        }
    }

    #[test]
    fn retimed_refresh_matches_cold_bounds_across_deadline_perturbations() {
        // The candidate-swap contract: costs and periods fixed, offsets and
        // first deadlines move.  The retimed horizon must equal the cold
        // full-bounds minimum for every re-phasing.
        let base = vec![
            DemandComponent::periodic_from(Time::new(2), Time::new(4), Time::new(10), Time::ZERO),
            DemandComponent::periodic_from(Time::new(3), Time::new(6), Time::new(15), Time::new(2)),
            DemandComponent::periodic_from(
                Time::new(4),
                Time::new(20),
                Time::new(40),
                Time::new(7),
            ),
        ];
        let mut refresher = BoundRefresher::new(&base);
        let exceeds = components_exceed_one(&base);
        for offsets in [[0u64, 0, 0], [3, 9, 11], [9, 14, 39], [0, 14, 0], [5, 5, 5]] {
            let retimed: Vec<DemandComponent> = base
                .iter()
                .zip(offsets)
                .map(|(c, offset)| {
                    let relative = c.first_deadline() - c.release_offset();
                    DemandComponent::periodic_from(
                        c.wcet(),
                        relative,
                        c.period().unwrap(),
                        Time::new(offset),
                    )
                })
                .collect();
            assert_eq!(
                refresher.horizon_retimed(&retimed, exceeds),
                FeasibilityBounds::for_components(&retimed).analysis_horizon(),
                "offsets {offsets:?}"
            );
        }
    }

    #[test]
    fn one_shot_components_disable_periodic_bounds() {
        let components = vec![
            DemandComponent::periodic(Time::new(1), Time::new(4), Time::new(10)),
            DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
        ];
        let bounds = FeasibilityBounds::for_components(&components);
        assert_eq!(bounds.baruah, None);
        assert_eq!(bounds.busy_period, None);
        assert_eq!(bounds.hyperperiod, None);
        // George absorbs the one-shot as a constant: L = 0.1·L + 0.6 + 2.
        let george = bounds.george.expect("defined");
        assert_eq!(george, Time::new(3)); // ceil(2.6 / 0.9) = 3
                                          // Safe: no violation at or beyond the bound for this workload.
        let prepared = PreparedWorkload::from_components(components);
        for i in george.as_u64()..george.as_u64() + 100 {
            assert!(prepared.dbf(Time::new(i)) <= Time::new(i));
        }
    }
}
