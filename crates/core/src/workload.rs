//! The [`Workload`] demand abstraction: one interface for every task model.
//!
//! §2/§3.6 of the paper stress that the processor-demand framework is not
//! tied to the sporadic task model — any workload whose *demand bound
//! function* `dbf(I)` can be evaluated and whose demand change points can
//! be enumerated is analyzable by exactly the same tests.  This module
//! makes that observation structural:
//!
//! * [`DemandComponent`] — the elementary demand generator: jobs of cost
//!   `C` with absolute deadlines `D, D + T, D + 2T, …` (or a single
//!   deadline for one-shot events).  A sporadic task is one component; a
//!   Gresser event-stream task is one component **per tuple** `(z, a)`
//!   (cost `C`, first deadline `a + D`, cycle `z`) — the decomposition is
//!   exact because `dbf(I) = C·η(I − D)` distributes over the tuples;
//! * [`Workload`] — anything that can decompose itself into components:
//!   implemented for [`TaskSet`], [`Task`], [`EventStreamTask`], slices
//!   and vectors of event-stream tasks, and [`MixedSystem`];
//! * [`PreparedWorkload`] — a workload snapshot with the shared state every
//!   test needs (components, exact utilization comparison, §4.3
//!   feasibility bounds, deadline ordering) computed **once** and cached,
//!   so a suite of tests re-uses it instead of recomputing per test.
//!
//! Every [`FeasibilityTest`](crate::FeasibilityTest) consumes a
//! [`PreparedWorkload`], which is what lets the exact tests of the paper
//! run unchanged on event-stream and mixed systems.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::tests::AllApproximatedTest;
//! use edf_analysis::workload::{MixedSystem, PreparedWorkload, Workload};
//! use edf_analysis::{FeasibilityTest, Verdict};
//! use edf_model::{EventStream, EventStreamTask, Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sporadic = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(2), Time::new(8), Time::new(10))?,
//! ]);
//! let burst = EventStreamTask::new(
//!     EventStream::bursty(3, Time::new(5), Time::new(100)),
//!     Time::new(4),
//!     Time::new(20),
//! )?;
//! let system = MixedSystem::new(sporadic, vec![burst]);
//!
//! // The paper's all-approximated exact test, on an event-stream system:
//! let prepared = PreparedWorkload::new(&system);
//! let analysis = AllApproximatedTest::new().analyze_prepared(&prepared);
//! assert_eq!(analysis.verdict, Verdict::Feasible);
//! # Ok(())
//! # }
//! ```

use std::sync::OnceLock;

use edf_model::{
    ArrivalCurveTask, CurveDecomposition, EventStreamTask, EventTuple, Task, TaskSet, Time,
    Transaction, TransactionSystem,
};

use crate::arith::{fracs_le_integer_iter, Reciprocal};
use crate::bounds::{horizon_components, FeasibilityBounds};
use crate::kernel::{merge_pop, AnalysisScratch, DemandKernel, DemandSteps, MergeState};

/// The elementary demand generator behind every supported task model.
///
/// A component releases jobs of cost [`wcet`](DemandComponent::wcet) at
/// `offset, offset + T, offset + 2T, …` (synchronous worst case), each due
/// [`first_deadline`](DemandComponent::first_deadline)` − offset` time
/// units after its release.  A component with `period() == None` is
/// *one-shot*: it contributes a single job.
///
/// # Examples
///
/// ```
/// use edf_analysis::workload::DemandComponent;
/// use edf_model::Time;
///
/// let c = DemandComponent::periodic(Time::new(2), Time::new(4), Time::new(10));
/// assert_eq!(c.dbf(Time::new(3)), Time::ZERO);
/// assert_eq!(c.dbf(Time::new(4)), Time::new(2));
/// assert_eq!(c.dbf(Time::new(14)), Time::new(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemandComponent {
    wcet: Time,
    /// Absolute deadline of the first job (`offset + relative deadline`).
    deadline: Time,
    /// Release instant of the first job within the observation window.
    offset: Time,
    /// Distance between consecutive jobs; `None` for a one-shot component.
    period: Option<Time>,
}

impl DemandComponent {
    /// A periodic component released at the window start (a sporadic task).
    #[must_use]
    pub fn periodic(wcet: Time, deadline: Time, period: Time) -> Self {
        DemandComponent {
            wcet,
            deadline,
            offset: Time::ZERO,
            period: Some(period),
        }
    }

    /// A periodic component whose first job is released at `offset` with
    /// relative deadline `relative_deadline` (an event-stream tuple).
    #[must_use]
    pub fn periodic_from(wcet: Time, relative_deadline: Time, period: Time, offset: Time) -> Self {
        DemandComponent {
            wcet,
            deadline: offset.saturating_add(relative_deadline),
            offset,
            period: Some(period),
        }
    }

    /// A one-shot component: a single job released at `offset` and due at
    /// `offset + relative_deadline`.
    #[must_use]
    pub fn one_shot(wcet: Time, relative_deadline: Time, offset: Time) -> Self {
        DemandComponent {
            wcet,
            deadline: offset.saturating_add(relative_deadline),
            offset,
            period: None,
        }
    }

    /// The component equivalent to a sporadic [`Task`].
    #[must_use]
    pub fn from_task(task: &Task) -> Self {
        DemandComponent::periodic(task.wcet(), task.deadline(), task.period())
    }

    /// Execution cost per job.
    #[must_use]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// The cost after scaling by `numer/denom`: rounded **up** (so a scaled
    /// workload never under-estimates demand) and clamped to the period for
    /// periodic components.  Zero is representable — scaling by `0/d` (or
    /// scaling a zero-cost component) yields a zero-cost component rather
    /// than silently inflating to one tick, so near-zero scalings report
    /// undistorted breakdown utilizations.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[must_use]
    pub fn scaled_wcet(&self, numer: u64, denom: u64) -> Time {
        assert!(denom > 0, "scaling denominator must be positive");
        let scaled = (self.wcet.as_u128() * u128::from(numer)).div_ceil(u128::from(denom));
        let mut wcet = Time::new(scaled.min(u128::from(u64::MAX)) as u64);
        if let Some(period) = self.period {
            wcet = wcet.min(period);
        }
        wcet
    }

    /// Replaces the execution cost (the only field a
    /// [`ScaledView`](crate::incremental::ScaledView) probe rewrites —
    /// deadlines, offsets and periods are scale-invariant).
    pub(crate) fn set_wcet(&mut self, wcet: Time) {
        self.wcet = wcet;
    }

    /// `wcet` clamped to the component's period (one-shots are
    /// unclamped) — the invariant every probe path applies to inflated
    /// costs, mirroring [`DemandComponent::scaled_wcet`].
    pub(crate) fn clamp_wcet(&self, wcet: Time) -> Time {
        match self.period {
            Some(period) => wcet.min(period),
            None => wcet,
        }
    }

    /// Absolute deadline of the first job.
    #[must_use]
    pub fn first_deadline(&self) -> Time {
        self.deadline
    }

    /// Release instant of the first job.
    #[must_use]
    pub fn release_offset(&self) -> Time {
        self.offset
    }

    /// Distance between jobs, `None` for a one-shot component.
    #[must_use]
    pub fn period(&self) -> Option<Time> {
        self.period
    }

    /// Long-run utilization (`C/T` for periodic components, 0 for
    /// one-shots).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        match self.period {
            Some(period) => self.wcet.as_f64() / period.as_f64(),
            None => 0.0,
        }
    }

    /// Demand bound function: total cost of jobs with release *and*
    /// deadline inside an interval of length `interval`.
    #[must_use]
    pub fn dbf(&self, interval: Time) -> Time {
        if interval < self.deadline {
            return Time::ZERO;
        }
        match self.period {
            None => self.wcet,
            Some(period) => {
                let jobs = (interval - self.deadline)
                    .div_floor(period)
                    .saturating_add(1);
                self.wcet.saturating_mul(jobs)
            }
        }
    }

    /// Request bound function: total cost of jobs *released* within an
    /// interval of length `interval` (half-open, with the job released at
    /// instant 0 counting for `interval = 0`, mirroring
    /// [`rbf_task`](crate::demand::rbf_task)).
    #[must_use]
    pub fn rbf(&self, interval: Time) -> Time {
        if self.offset.is_zero() && interval.is_zero() {
            return self.wcet;
        }
        if interval <= self.offset {
            return Time::ZERO;
        }
        match self.period {
            None => self.wcet,
            Some(period) => {
                let jobs = (interval - self.offset - Time::ONE).div_floor(period) + 1;
                self.wcet.saturating_mul(jobs)
            }
        }
    }

    /// The absolute deadline of the first job strictly after `interval`
    /// (Lemma 5's `NextInt`), or `None` if there is none / on overflow.
    #[must_use]
    pub fn next_deadline_after(&self, interval: Time) -> Option<Time> {
        if interval < self.deadline {
            return Some(self.deadline);
        }
        let period = self.period?;
        let k = (interval - self.deadline)
            .div_floor(period)
            .checked_add(1)?;
        period.checked_mul(k)?.checked_add(self.deadline)
    }

    /// The largest job deadline strictly below `limit`, or `None`.
    #[must_use]
    pub fn last_deadline_below(&self, limit: Time) -> Option<Time> {
        if self.deadline >= limit {
            return None;
        }
        match self.period {
            None => Some(self.deadline),
            Some(period) => {
                let k = (limit - self.deadline - Time::ONE).div_floor(period);
                period.checked_mul(k)?.checked_add(self.deadline)
            }
        }
    }

    /// The maximum test interval `Im` at approximation `level ≥ 1`: the
    /// deadline of the `level`-th job (Def. 4 generalized; one-shot
    /// components saturate at their single deadline).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    #[must_use]
    pub fn max_test_interval(&self, level: u64) -> Time {
        assert!(level >= 1, "approximation level must be at least 1");
        match self.period {
            None => self.deadline,
            Some(period) => period
                .saturating_mul(level - 1)
                .saturating_add(self.deadline),
        }
    }
}

/// One entry of [`DemandEventIter`]: an interval length at which the
/// demand increases and the component responsible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandEvent {
    /// Interval length (an absolute job deadline).
    pub interval: Time,
    /// Index of the component within the prepared workload.
    pub component: usize,
}

/// Lazily merged stream of all component job deadlines `≤ horizon` in
/// non-decreasing order (the k-way merge behind the demand-based tests,
/// generalizing [`DeadlineIter`](crate::demand::DeadlineIter) to arbitrary
/// workloads).
///
/// Ties are returned as separate events, one per job, so callers can
/// accumulate per-job demand incrementally.  Since the columnar-kernel
/// rebuild the merge runs on a flat loser tree
/// ([`MergeState`]) that owns its stream state —
/// the iterator no longer borrows the component list — and the heap-based
/// original survives as [`crate::kernel::reference::demand_events`] for
/// the equivalence tests.
#[derive(Debug)]
pub struct DemandEventIter {
    merge: MergeState,
}

impl DemandEventIter {
    /// Creates the iterator over all job deadlines `≤ horizon`.
    #[must_use]
    pub fn new(components: &[DemandComponent], horizon: Time) -> Self {
        let mut merge = MergeState::default();
        merge.init(components, horizon);
        DemandEventIter { merge }
    }
}

impl Iterator for DemandEventIter {
    type Item = DemandEvent;

    fn next(&mut self) -> Option<DemandEvent> {
        merge_pop(&mut self.merge).map(|(interval, component)| DemandEvent {
            interval,
            component,
        })
    }
}

/// A demand-characterized workload: anything that can decompose itself
/// into [`DemandComponent`]s.
///
/// The provided methods (`dbf`, `rbf`, `utilization`, `next_demand_point`,
/// `demand_events`) are derived from the decomposition; implementors only
/// supply [`Workload::demand_components`] (and may override the rest with
/// cheaper model-specific versions).  For anything hot, wrap the workload
/// in a [`PreparedWorkload`] once and reuse it — the trait methods here
/// recompute the decomposition on every call.
pub trait Workload {
    /// Decomposes the workload into elementary demand components.
    fn demand_components(&self) -> Vec<DemandComponent>;

    /// Appends the decomposition to `out` without allocating a fresh
    /// vector — the entry point of the allocation-free batch preparation
    /// path ([`PreparedWorkload::recycled`]).  The default goes through
    /// [`Workload::demand_components`]; the built-in models override it to
    /// push components directly.
    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        out.extend(self.demand_components());
    }

    /// Number of user-visible tasks (for reporting; a bursty event stream
    /// is one task but several components).
    fn task_count(&self) -> usize {
        self.demand_components().len()
    }

    /// `true` if the workload has no demand at all.
    fn is_empty(&self) -> bool {
        self.demand_components().is_empty()
    }

    /// Long-run processor utilization.
    fn utilization(&self) -> f64 {
        self.demand_components()
            .iter()
            .map(DemandComponent::utilization)
            .sum()
    }

    /// Total demand bound function `dbf(I)`.
    fn dbf(&self, interval: Time) -> Time {
        self.demand_components()
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.dbf(interval)))
    }

    /// Total request bound function `rbf(I)`.
    fn rbf(&self, interval: Time) -> Time {
        self.demand_components()
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.rbf(interval)))
    }

    /// The smallest interval length strictly greater than `interval` at
    /// which the demand increases, or `None` if demand never grows again.
    fn next_demand_point(&self, interval: Time) -> Option<Time> {
        self.demand_components()
            .iter()
            .filter_map(|c| c.next_deadline_after(interval))
            .min()
    }

    /// `true` (the default) when [`Workload::demand_components`] reproduces
    /// the workload's demand exactly; `false` when the decomposition
    /// **over-approximates** it (conservative arrival-curve mode, the
    /// synchronous reduction of an offset transaction).  Tests demote
    /// rejections of over-approximated demand to
    /// [`Verdict::Unknown`](crate::Verdict::Unknown) — see
    /// [`FeasibilityTest::analyze_prepared`](crate::FeasibilityTest::analyze_prepared).
    fn demand_is_exact(&self) -> bool {
        true
    }

    /// `true` (the default) when the components' long-run utilization
    /// equals the workload's.  Distinct from [`Workload::demand_is_exact`]
    /// because some over-approximations still preserve utilization —
    /// dropping transaction offsets does, substituting a leaky-bucket
    /// envelope does not — and a `U > 1` rejection from
    /// utilization-preserving components is valid even when the demand is
    /// over-approximated.
    fn utilization_is_exact(&self) -> bool {
        true
    }
}

impl Workload for TaskSet {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.iter().map(DemandComponent::from_task).collect()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        out.extend(self.iter().map(DemandComponent::from_task));
    }

    fn task_count(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }

    fn utilization(&self) -> f64 {
        self.utilization()
    }
}

impl Workload for Task {
    fn demand_components(&self) -> Vec<DemandComponent> {
        vec![DemandComponent::from_task(self)]
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        out.push(DemandComponent::from_task(self));
    }

    fn task_count(&self) -> usize {
        1
    }
}

impl Workload for EventStreamTask {
    fn demand_components(&self) -> Vec<DemandComponent> {
        stream_task_components(self)
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        tuple_components_into(self.wcet(), self.deadline(), self.stream().tuples(), out);
    }

    fn task_count(&self) -> usize {
        1
    }

    fn is_empty(&self) -> bool {
        false
    }

    fn utilization(&self) -> f64 {
        self.utilization()
    }
}

impl Workload for [EventStreamTask] {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.iter().flat_map(stream_task_components).collect()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        for task in self {
            task.append_components(out);
        }
    }

    fn task_count(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

impl Workload for Vec<EventStreamTask> {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.as_slice().demand_components()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        self.as_slice().append_components(out);
    }

    fn task_count(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

/// Decomposition of an event-stream task: one component per tuple.
///
/// `dbf(I) = C·η(I − D)` and `η` is the sum of the per-tuple event counts,
/// so tuple `(z, a)` becomes a component with cost `C`, first deadline
/// `a + D` and cycle `z` — the decomposition is exact, not an
/// approximation.
fn stream_task_components(task: &EventStreamTask) -> Vec<DemandComponent> {
    tuple_components(task.wcet(), task.deadline(), task.stream().tuples())
}

/// One component per event tuple / staircase step: cost `wcet`, first
/// deadline `offset + deadline`, the tuple's cycle.  Shared by the
/// event-stream and arrival-curve decompositions — keeping the mapping in
/// one place is what makes a converted task *analysis-equivalent*, not
/// just demand-equivalent.
fn tuple_components(wcet: Time, deadline: Time, tuples: &[EventTuple]) -> Vec<DemandComponent> {
    let mut out = Vec::with_capacity(tuples.len());
    tuple_components_into(wcet, deadline, tuples, &mut out);
    out
}

/// [`tuple_components`], appending into a caller-provided buffer.
fn tuple_components_into(
    wcet: Time,
    deadline: Time,
    tuples: &[EventTuple],
    out: &mut Vec<DemandComponent>,
) {
    out.extend(tuples.iter().map(|tuple| match tuple.cycle {
        Some(cycle) => DemandComponent::periodic_from(wcet, deadline, cycle, tuple.offset),
        None => DemandComponent::one_shot(wcet, deadline, tuple.offset),
    }));
}

impl Workload for ArrivalCurveTask {
    fn demand_components(&self) -> Vec<DemandComponent> {
        curve_task_components(self)
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        curve_task_components_into(self, out);
    }

    fn task_count(&self) -> usize {
        1
    }

    fn is_empty(&self) -> bool {
        false
    }

    fn utilization(&self) -> f64 {
        self.utilization()
    }

    fn demand_is_exact(&self) -> bool {
        // Conservative mode substitutes the leaky-bucket envelope (when
        // one exists; otherwise it falls back to the exact staircase).
        self.decomposition() != CurveDecomposition::Conservative
            || self.curve().leaky_bucket_envelope().is_none()
    }

    fn utilization_is_exact(&self) -> bool {
        // The envelope rounds the inter-event distance down, inflating the
        // long-run rate.
        self.demand_is_exact()
    }
}

impl Workload for [ArrivalCurveTask] {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.iter().flat_map(curve_task_components).collect()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        for task in self {
            curve_task_components_into(task, out);
        }
    }

    fn task_count(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }

    fn utilization(&self) -> f64 {
        // Sum the tasks' true rates, not the (possibly envelope-inflated)
        // component utilization — matching the single-task impl.
        self.iter().map(ArrivalCurveTask::utilization).sum()
    }

    fn demand_is_exact(&self) -> bool {
        self.iter().all(Workload::demand_is_exact)
    }

    fn utilization_is_exact(&self) -> bool {
        self.iter().all(Workload::utilization_is_exact)
    }
}

impl Workload for Vec<ArrivalCurveTask> {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.as_slice().demand_components()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        self.as_slice().append_components(out);
    }

    fn task_count(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }

    fn utilization(&self) -> f64 {
        Workload::utilization(self.as_slice())
    }

    fn demand_is_exact(&self) -> bool {
        self.as_slice().demand_is_exact()
    }

    fn utilization_is_exact(&self) -> bool {
        self.as_slice().utilization_is_exact()
    }
}

/// Decomposition of an arrival-curve task.
///
/// In [`CurveDecomposition::Exact`] mode every staircase step of the curve
/// becomes one component — identical in structure to the event-stream
/// decomposition, so `dbf(I) = C·η⁺(I − D)` is reproduced exactly.  In
/// [`CurveDecomposition::Conservative`] mode the curve's leaky-bucket
/// envelope `(b, d)` is decomposed instead — `b` one-shot components at
/// offset 0 plus one periodic component of cycle `d` — which
/// over-approximates the demand (feasible verdicts stay sound; rejections
/// are demoted to unknown, see [`Workload::demand_is_exact`]) with `O(b)`
/// components regardless of the staircase size.  Falls back to the exact
/// decomposition when the curve has no envelope.
fn curve_task_components(task: &ArrivalCurveTask) -> Vec<DemandComponent> {
    let mut out = Vec::new();
    curve_task_components_into(task, &mut out);
    out
}

/// [`curve_task_components`], appending into a caller-provided buffer.
fn curve_task_components_into(task: &ArrivalCurveTask, out: &mut Vec<DemandComponent>) {
    if task.decomposition() == CurveDecomposition::Conservative {
        if let Some(envelope) = task.curve().leaky_bucket_envelope() {
            out.reserve(envelope.burst as usize + 1);
            for _ in 0..envelope.burst {
                out.push(DemandComponent::one_shot(
                    task.wcet(),
                    task.deadline(),
                    Time::ZERO,
                ));
            }
            out.push(DemandComponent::periodic_from(
                task.wcet(),
                task.deadline(),
                envelope.distance,
                envelope.distance,
            ));
            return;
        }
    }
    tuple_components_into(task.wcet(), task.deadline(), task.curve().steps(), out);
}

/// The **synchronous** decomposition of a transaction: all parts released
/// together at the window start, repeating every period (offsets dropped).
///
/// This over-approximates every critical-instant candidate — shifting a
/// part by a phase can only delay its deadlines — so it is a cheap
/// conservative stand-in for the exact per-candidate analysis in
/// [`crate::transactions`]: feasible verdicts are sound, and rejections
/// are demoted to unknown (see [`Workload::demand_is_exact`]).  It is
/// exact when all offsets are equal.
impl Workload for Transaction {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.parts()
            .iter()
            .map(|part| DemandComponent::periodic(part.wcet(), part.deadline(), self.period()))
            .collect()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        out.extend(
            self.parts()
                .iter()
                .map(|part| DemandComponent::periodic(part.wcet(), part.deadline(), self.period())),
        );
    }

    fn task_count(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }

    fn utilization(&self) -> f64 {
        self.utilization()
    }

    fn demand_is_exact(&self) -> bool {
        // With one shared offset every critical-instant candidate equals
        // the synchronous pattern, so dropping the offsets loses nothing.
        self.parts()
            .iter()
            .all(|p| p.offset() == self.parts()[0].offset())
    }
}

/// The synchronous conservative decomposition of a whole transaction
/// system (see the [`Transaction`] impl); exact candidate enumeration
/// lives in [`crate::transactions`].
impl Workload for TransactionSystem {
    fn demand_components(&self) -> Vec<DemandComponent> {
        let mut components = Vec::new();
        self.append_components(&mut components);
        components
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        Workload::append_components(self.sporadic(), out);
        for transaction in self.transactions() {
            Workload::append_components(transaction, out);
        }
    }

    fn task_count(&self) -> usize {
        self.sporadic().len()
            + self
                .transactions()
                .iter()
                .map(Transaction::len)
                .sum::<usize>()
    }

    fn is_empty(&self) -> bool {
        self.sporadic().is_empty() && self.transactions().is_empty()
    }

    fn utilization(&self) -> f64 {
        self.utilization()
    }

    fn demand_is_exact(&self) -> bool {
        self.transactions().iter().all(Workload::demand_is_exact)
    }
}

/// Boxed workloads forward to their contents, letting heterogeneous
/// batches (sporadic + event-stream + arrival-curve in one `Vec`) flow
/// through [`crate::batch::analyze_many`] unchanged.
impl Workload for Box<dyn Workload + Send + Sync> {
    fn demand_components(&self) -> Vec<DemandComponent> {
        (**self).demand_components()
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        (**self).append_components(out);
    }

    fn task_count(&self) -> usize {
        (**self).task_count()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn utilization(&self) -> f64 {
        (**self).utilization()
    }

    fn dbf(&self, interval: Time) -> Time {
        (**self).dbf(interval)
    }

    fn rbf(&self, interval: Time) -> Time {
        (**self).rbf(interval)
    }

    fn next_demand_point(&self, interval: Time) -> Option<Time> {
        (**self).next_demand_point(interval)
    }

    fn demand_is_exact(&self) -> bool {
        (**self).demand_is_exact()
    }

    fn utilization_is_exact(&self) -> bool {
        (**self).utilization_is_exact()
    }
}

/// A system mixing sporadic tasks and event-stream activated tasks — the
/// "advanced task model" of §2/§3.6.
///
/// `MixedSystem` used to carry its own bespoke analysis loop; it is now an
/// ordinary [`Workload`] and every feasibility test of this crate applies.
/// The convenience methods ([`MixedSystem::analyze`], …) are thin wrappers
/// over the common path.
///
/// # Examples
///
/// ```
/// use edf_analysis::workload::MixedSystem;
/// use edf_analysis::Verdict;
/// use edf_model::{EventStream, EventStreamTask, Task, TaskSet, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sporadic = TaskSet::from_tasks(vec![
///     Task::new(Time::new(2), Time::new(8), Time::new(10))?,
/// ]);
/// let burst = EventStreamTask::new(
///     EventStream::bursty(3, Time::new(5), Time::new(100)),
///     Time::new(4),
///     Time::new(20),
/// )?;
/// let system = MixedSystem::new(sporadic, vec![burst]);
/// assert!(edf_analysis::workload::Workload::utilization(&system) < 1.0);
/// assert_eq!(system.analyze().verdict, Verdict::Feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixedSystem {
    sporadic: TaskSet,
    stream_tasks: Vec<EventStreamTask>,
}

impl MixedSystem {
    /// Creates a mixed system from its sporadic and event-stream parts.
    #[must_use]
    pub fn new(sporadic: TaskSet, stream_tasks: Vec<EventStreamTask>) -> Self {
        MixedSystem {
            sporadic,
            stream_tasks,
        }
    }

    /// The sporadic part.
    #[must_use]
    pub fn sporadic(&self) -> &TaskSet {
        &self.sporadic
    }

    /// The event-stream part.
    #[must_use]
    pub fn stream_tasks(&self) -> &[EventStreamTask] {
        &self.stream_tasks
    }

    /// Long-run processor utilization of the whole system.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        Workload::utilization(self)
    }

    /// Total demand bound function of the system.
    #[must_use]
    pub fn demand(&self, interval: Time) -> Time {
        Workload::dbf(self, interval)
    }
}

impl Workload for MixedSystem {
    fn demand_components(&self) -> Vec<DemandComponent> {
        let mut components = Vec::new();
        self.append_components(&mut components);
        components
    }

    fn append_components(&self, out: &mut Vec<DemandComponent>) {
        Workload::append_components(&self.sporadic, out);
        self.stream_tasks.as_slice().append_components(out);
    }

    fn task_count(&self) -> usize {
        self.sporadic.len() + self.stream_tasks.len()
    }

    fn is_empty(&self) -> bool {
        self.sporadic.is_empty() && self.stream_tasks.is_empty()
    }

    fn utilization(&self) -> f64 {
        self.sporadic.utilization()
            + self
                .stream_tasks
                .iter()
                .map(EventStreamTask::utilization)
                .sum::<f64>()
    }
}

/// A [`Workload`] snapshot with all per-suite state computed once: the
/// component decomposition, the exact `U > 1` comparison, the §4.3
/// analysis horizon and the deadline ordering.
///
/// Preparing is cheap (linear in the number of components) and pays off as
/// soon as a workload is analyzed by more than one test — which is what
/// every experiment in the paper does.  The analysis horizon is computed
/// lazily on first use, or installed by the incremental views, which keep
/// only the horizon.  The full set of §4.3 bounds
/// ([`PreparedWorkload::bounds`]) is computed lazily and cold, only when a
/// report asks for it.  `PreparedWorkload` is `Sync`, so one prepared
/// instance can be shared by the parallel batch front end
/// ([`crate::batch`]).
#[derive(Debug)]
pub struct PreparedWorkload {
    components: Vec<DemandComponent>,
    task_count: usize,
    utilization: f64,
    exceeds_one: bool,
    demand_exact: bool,
    utilization_exact: bool,
    bounds: OnceLock<FeasibilityBounds>,
    /// The tightest §4.3 bound (see [`PreparedWorkload::analysis_horizon`]).
    horizon: OnceLock<Option<Time>>,
    deadline_order: OnceLock<Vec<usize>>,
    /// The columnar demand kernel (built lazily on the first demand
    /// query; see [`crate::kernel`]).
    kernel: OnceLock<DemandKernel>,
    /// When set, every demand query runs through the retained scalar
    /// array-of-structs path instead of the kernel — the equivalence
    /// oracle, see [`PreparedWorkload::scalar_reference`].
    pub(crate) scalar_demand: bool,
}

impl PreparedWorkload {
    /// Prepares `workload` for repeated analysis.
    #[must_use]
    pub fn new<W: Workload + ?Sized>(workload: &W) -> Self {
        let components = workload.demand_components();
        let task_count = workload.task_count();
        PreparedWorkload::from_parts(
            components,
            task_count,
            workload.demand_is_exact(),
            workload.utilization_is_exact(),
        )
    }

    /// Prepares a raw component list (advanced use: custom task models
    /// without a [`Workload`] implementation).  The components are taken
    /// to be the workload's exact demand.
    #[must_use]
    pub fn from_components(components: Vec<DemandComponent>) -> Self {
        let task_count = components.len();
        PreparedWorkload::from_parts(components, task_count, true, true)
    }

    pub(crate) fn from_parts(
        components: Vec<DemandComponent>,
        task_count: usize,
        demand_exact: bool,
        utilization_exact: bool,
    ) -> Self {
        let utilization = components.iter().map(DemandComponent::utilization).sum();
        let exceeds_one = components_exceed_one(&components);
        PreparedWorkload {
            components,
            task_count,
            utilization,
            exceeds_one,
            demand_exact,
            utilization_exact,
            bounds: OnceLock::new(),
            horizon: OnceLock::new(),
            deadline_order: OnceLock::new(),
            kernel: OnceLock::new(),
            scalar_demand: false,
        }
    }

    /// Rebuilds this preparation **in place** for a different workload,
    /// reusing every buffer (component vector, deadline order, kernel
    /// columns) — the allocation-free path behind
    /// [`crate::batch::analyze_many`], where one recycled preparation per
    /// worker serves the whole batch.  Observable state is identical to
    /// `PreparedWorkload::new(workload)`.
    #[must_use]
    pub fn recycled<W: Workload + ?Sized>(mut self, workload: &W) -> PreparedWorkload {
        self.components.clear();
        workload.append_components(&mut self.components);
        self.task_count = workload.task_count();
        self.demand_exact = workload.demand_is_exact();
        self.utilization_exact = workload.utilization_is_exact();
        self.utilization = self
            .components
            .iter()
            .map(DemandComponent::utilization)
            .sum();
        self.exceeds_one = components_exceed_one(&self.components);
        self.scalar_demand = false;
        self.bounds.take();
        self.horizon.take();
        // The previous workload's cached order and kernel are stale either
        // way; rebuild them into their existing allocations only when a
        // demand query can actually run (every test rejects `U > 1`
        // workloads before touching the demand, so eager work there would
        // be pure waste — the lazy path handles the off-chance query).
        let order = self.deadline_order.take();
        let kernel = self.kernel.take();
        if !self.exceeds_one {
            let mut order = order.unwrap_or_default();
            order.clear();
            order.extend(0..self.components.len());
            order.sort_by_key(|&i| self.components[i].first_deadline());
            let mut kernel = kernel.unwrap_or_default();
            kernel.rebuild(&self.components, &order);
            let _ = self.deadline_order.set(order);
            let _ = self.kernel.set(kernel);
        }
        self
    }

    /// A copy of this preparation that answers every demand query (`dbf`,
    /// `last_deadline_below`, the event merge, the combined QPA step)
    /// through the retained **scalar** array-of-structs path instead of
    /// the columnar kernel.
    ///
    /// This is the reference oracle of the kernel rebuild: analyses of the
    /// two preparations must be bit-identical — verdicts, iteration
    /// counts, examined intervals and overload witnesses — which the
    /// `kernel_equivalence` property tests assert across every workload
    /// family.  Use the kernel path for real work; the oracle re-runs the
    /// pre-kernel inner loops and exists for validation and benchmarking.
    #[must_use]
    pub fn scalar_reference(&self) -> PreparedWorkload {
        let mut oracle = PreparedWorkload::from_parts(
            self.components.clone(),
            self.task_count,
            self.demand_exact,
            self.utilization_exact,
        );
        oracle.scalar_demand = true;
        oracle
    }

    /// `false` when the component decomposition over-approximates the
    /// source workload's demand (see [`Workload::demand_is_exact`]):
    /// feasible verdicts remain sound, but rejections are demoted to
    /// unknown by
    /// [`FeasibilityTest::analyze_prepared`](crate::FeasibilityTest::analyze_prepared).
    #[must_use]
    pub fn demand_is_exact(&self) -> bool {
        self.demand_exact
    }

    /// `true` when the components' long-run utilization equals the source
    /// workload's (see [`Workload::utilization_is_exact`]); a `U > 1`
    /// rejection then stands even for over-approximated demand.
    #[must_use]
    pub fn utilization_is_exact(&self) -> bool {
        self.utilization_exact
    }

    /// The component decomposition.
    #[must_use]
    pub fn components(&self) -> &[DemandComponent] {
        &self.components
    }

    /// Number of user-visible tasks of the source workload.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.task_count
    }

    /// `true` if the workload has no components.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Long-run utilization as `f64`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Exact (integer arithmetic) test whether the long-run utilization
    /// exceeds 1 — the trivial necessary condition of every test.
    #[must_use]
    pub fn utilization_exceeds_one(&self) -> bool {
        self.exceeds_one
    }

    /// Total demand bound function — answered by the columnar kernel (one
    /// binary search into the sorted deadline column, a one-shot
    /// prefix-sum lookup, and a tight loop over the periodic columns; see
    /// [`crate::kernel`]); the scalar fold survives behind
    /// [`PreparedWorkload::scalar_reference`].
    #[must_use]
    pub fn dbf(&self, interval: Time) -> Time {
        if self.scalar_demand {
            return self
                .components
                .iter()
                .fold(Time::ZERO, |acc, c| acc.saturating_add(c.dbf(interval)));
        }
        self.kernel().dbf(interval)
    }

    /// The demand of a single component at `interval` — the refining
    /// tests' withdrawal evaluation, answered by a kernel column gather
    /// (reciprocal multiply instead of a hardware division) on the kernel
    /// path and by [`DemandComponent::dbf`] on the scalar oracle.
    #[must_use]
    pub(crate) fn component_demand(&self, component: usize, interval: Time) -> Time {
        if self.scalar_demand {
            return self.components[component].dbf(interval);
        }
        self.kernel().component_demand(component, interval)
    }

    /// The precomputed reciprocal of a component's period (`None` for
    /// one-shots) — gathered once per refining analysis so the frontier
    /// steps deadlines and re-approximates terms without dividing.  Served
    /// from the kernel columns on the kernel path; the scalar oracle
    /// computes it directly rather than forcing a kernel build.
    #[must_use]
    pub(crate) fn component_reciprocal(&self, component: usize) -> Option<Reciprocal> {
        if self.scalar_demand {
            let period = self.components[component].period()?;
            return Some(Reciprocal::new(period.as_u64()));
        }
        self.kernel().period_reciprocal(component)
    }

    /// The columnar demand kernel of this preparation, built on first use
    /// from the cached deadline order and reused by every demand query.
    pub fn kernel(&self) -> &DemandKernel {
        self.kernel.get_or_init(|| {
            let mut kernel = DemandKernel::default();
            kernel.rebuild(&self.components, self.deadline_order());
            kernel
        })
    }

    /// Total request bound function.
    #[must_use]
    pub fn rbf(&self, interval: Time) -> Time {
        self.components
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.rbf(interval)))
    }

    /// Every feasibility bound of §4.3, computed cold on first use and
    /// cached — for reports that show the bounds side by side.  The tests
    /// read only [`PreparedWorkload::analysis_horizon`], which never builds
    /// this.
    pub fn bounds(&self) -> &FeasibilityBounds {
        self.bounds
            .get_or_init(|| FeasibilityBounds::for_components(&self.components))
    }

    /// Populates the bound cache with the cold (unseeded) computation —
    /// crate-internal, used by [`crate::sensitivity::reference`] so the
    /// from-scratch baseline pays the pre-incremental preparation cost
    /// (the values are identical either way).
    pub(crate) fn prime_cold_bounds(&self) {
        let _ = self
            .bounds
            .get_or_init(|| FeasibilityBounds::for_components_cold(&self.components));
    }

    /// The tightest feasibility bound (equal to
    /// [`FeasibilityBounds::analysis_horizon`] of
    /// [`PreparedWorkload::bounds`]), cached on first use: from the full
    /// bounds when they are already cached, otherwise through
    /// [`horizon_components`], which skips the dominated bounds.
    #[must_use]
    pub fn analysis_horizon(&self) -> Option<Time> {
        *self.horizon.get_or_init(|| match self.bounds.get() {
            Some(bounds) => bounds.analysis_horizon(),
            None => horizon_components(&self.components),
        })
    }

    /// Smallest first deadline over all components.
    #[must_use]
    pub fn min_first_deadline(&self) -> Option<Time> {
        self.components
            .iter()
            .map(DemandComponent::first_deadline)
            .min()
    }

    /// Largest first deadline over all components.
    #[must_use]
    pub fn max_first_deadline(&self) -> Option<Time> {
        self.components
            .iter()
            .map(DemandComponent::first_deadline)
            .max()
    }

    /// Component indices sorted by non-decreasing first deadline (cached;
    /// the order Devi's test and `SuperPos` iterate in).
    #[must_use]
    pub fn deadline_order(&self) -> &[usize] {
        self.deadline_order.get_or_init(|| {
            let mut order: Vec<usize> = (0..self.components.len()).collect();
            order.sort_by_key(|&i| self.components[i].first_deadline());
            order
        })
    }

    /// Merged stream of all job deadlines `≤ horizon` in ascending order
    /// (per-job events; see [`PreparedWorkload::demand_steps`] for the
    /// coalesced form the processor-demand walk consumes).
    #[must_use]
    pub fn demand_events(&self, horizon: Time) -> DemandEventIter {
        DemandEventIter::new(&self.components, horizon)
    }

    /// Coalesced demand steps `≤ horizon`: one `(interval, demand
    /// increment)` pair per **distinct** job deadline, merged through the
    /// scratch's reusable loser tree (or the scalar-oracle heap walk for a
    /// [`PreparedWorkload::scalar_reference`] preparation).
    #[must_use]
    pub fn demand_steps<'a>(
        &'a self,
        horizon: Time,
        scratch: &'a mut AnalysisScratch,
    ) -> DemandSteps<'a> {
        if self.scalar_demand {
            return DemandSteps::scalar(&self.components, horizon);
        }
        scratch.merge.init(&self.components, horizon);
        DemandSteps::from_tree(&mut scratch.merge)
    }

    /// The largest job deadline (over all components) strictly below
    /// `limit`, or `None` — the step function of the QPA test, answered
    /// from the kernel's sorted columns instead of a full component scan.
    #[must_use]
    pub fn last_deadline_below(&self, limit: Time) -> Option<Time> {
        if self.scalar_demand {
            return self
                .components
                .iter()
                .filter_map(|c| c.last_deadline_below(limit))
                .max();
        }
        self.kernel().last_deadline_below(limit)
    }

    /// The combined QPA step query: `dbf(interval)` and the largest job
    /// deadline strictly below `interval`, in **one** pass over the
    /// kernel columns (see [`DemandKernel::demand_and_predecessor`]).
    #[must_use]
    pub fn demand_and_predecessor(&self, interval: Time) -> (Time, Option<Time>) {
        if self.scalar_demand {
            return (self.dbf(interval), self.last_deadline_below(interval));
        }
        self.kernel().demand_and_predecessor(interval)
    }

    /// A copy with every component's cost scaled by `numer/denom` (per
    /// [`DemandComponent::scaled_wcet`]: rounded up, clamped to the period,
    /// zero-cost components representable) — the from-scratch workhorse of
    /// the sensitivity searches.  Search loops that probe many scalings of
    /// one workload should prefer a
    /// [`ScaledView`](crate::incremental::ScaledView), which produces the
    /// same prepared state without re-preparing per probe.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[must_use]
    pub fn with_scaled_wcets(&self, numer: u64, denom: u64) -> PreparedWorkload {
        assert!(denom > 0, "scaling denominator must be positive");
        let components = self
            .components
            .iter()
            .map(|c| DemandComponent {
                wcet: c.scaled_wcet(numer, denom),
                ..*c
            })
            .collect();
        let mut scaled = PreparedWorkload::from_parts(
            components,
            self.task_count,
            self.demand_exact,
            self.utilization_exact,
        );
        scaled.scalar_demand = self.scalar_demand;
        scaled
    }

    /// The long-run utilization of the scaled copy
    /// `with_scaled_wcets(numer, denom)` without building it (the
    /// summation order matches a real preparation, so the value is
    /// identical bit for bit).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[must_use]
    pub fn scaled_utilization(&self, numer: u64, denom: u64) -> f64 {
        self.components
            .iter()
            .map(|c| match c.period {
                Some(period) => c.scaled_wcet(numer, denom).as_f64() / period.as_f64(),
                None => 0.0,
            })
            .sum()
    }

    /// Rewrites the cost of component `index` (crate-internal: only the
    /// [`ScaledView`](crate::incremental::ScaledView) refresh path may
    /// mutate a prepared workload, and it restores the cached aggregates
    /// via [`PreparedWorkload::install_refreshed_state`] afterwards).
    ///
    /// When the kernel is already built the rewrite is **also** a plain
    /// column write — deadlines, periods and the sort order are invariant
    /// under WCET changes, so the columns stay valid across probes.
    pub(crate) fn set_wcet_at(&mut self, index: usize, wcet: Time) {
        self.components[index].set_wcet(wcet);
        if let Some(kernel) = self.kernel.get_mut() {
            kernel.set_wcet(index, wcet);
        }
    }

    /// Installs the aggregates matching the current (mutated) component
    /// list: utilization, the exact `U > 1` comparison and the analysis
    /// horizon computed by the caller.  The cached full bounds are dropped
    /// (a later [`PreparedWorkload::bounds`] call recomputes them cold).
    /// The deadline order is left untouched: it only depends on the
    /// scale-invariant first deadlines.
    pub(crate) fn install_refreshed_state(
        &mut self,
        utilization: f64,
        exceeds_one: bool,
        horizon: Option<Time>,
    ) {
        self.utilization = utilization;
        self.exceeds_one = exceeds_one;
        self.install_horizon(horizon);
        if let Some(kernel) = self.kernel.get_mut() {
            kernel.refresh_after_rewrite();
        }
    }

    /// Seeds the cached deadline order (crate-internal: lets a
    /// [`ScaledView`](crate::incremental::ScaledView) share the base
    /// workload's sorted order instead of re-sorting, which is valid
    /// because WCET changes never move a deadline).
    pub(crate) fn seed_deadline_order(&mut self, order: Vec<usize>) {
        let _ = self.deadline_order.set(order);
    }

    /// Overwrites component `index` wholesale (crate-internal: the
    /// [`CandidateView`](crate::candidates::CandidateView) block-patch
    /// path).  The caller must preserve the component's cost and period —
    /// only the timing (offset/first deadline) may move, which keeps the
    /// cached utilization and the exact `U > 1` comparison valid — and must
    /// call [`PreparedWorkload::install_retimed_state`] before the next
    /// demand query (the deadline order, kernel columns and horizon are
    /// stale until then).
    pub(crate) fn write_component_at(&mut self, index: usize, component: DemandComponent) {
        debug_assert_eq!(self.components[index].wcet(), component.wcet());
        debug_assert_eq!(self.components[index].period(), component.period());
        self.components[index] = component;
    }

    /// Takes the cached deadline order out of the preparation (empty when
    /// never computed), so a retiming caller can repair it in place without
    /// reallocating; pair with [`PreparedWorkload::install_retimed_state`].
    pub(crate) fn take_deadline_order(&mut self) -> Vec<usize> {
        self.deadline_order.take().unwrap_or_default()
    }

    /// Installs the state matching the current (re-timed) component list
    /// after a batch of [`PreparedWorkload::write_component_at`] writes:
    /// `order` must be the stable ascending-first-deadline index order of
    /// the components, the kernel columns are rebuilt from it into their
    /// existing allocations (re-using `reciprocals` — the per-component
    /// period reciprocals, invariant under re-timing), and the analysis
    /// horizon is replaced (the cached full bounds are dropped).
    /// Utilization and the `U > 1` comparison are untouched — re-phasing
    /// never moves a cost or period.
    pub(crate) fn install_retimed_state(
        &mut self,
        order: Vec<usize>,
        horizon: Option<Time>,
        reciprocals: &[crate::arith::Reciprocal],
    ) {
        debug_assert!(order.len() == self.components.len());
        debug_assert!(order.windows(2).all(|w| {
            let (a, b) = (&self.components[w[0]], &self.components[w[1]]);
            a.first_deadline() < b.first_deadline()
                || (a.first_deadline() == b.first_deadline() && w[0] < w[1])
        }));
        let mut kernel = self.kernel.take().unwrap_or_default();
        kernel.rebuild_with_reciprocals(&self.components, &order, reciprocals);
        let _ = self.kernel.set(kernel);
        self.deadline_order.take();
        let _ = self.deadline_order.set(order);
        self.install_horizon(horizon);
    }

    /// Replaces the cached analysis horizon and drops the cached full
    /// bounds, which no longer match the mutated components.
    fn install_horizon(&mut self, horizon: Option<Time>) {
        self.bounds.take();
        self.horizon.take();
        let _ = self.horizon.set(horizon);
    }

    /// Allocated capacity of the component column (crate-internal: the
    /// buffer-reuse assertions of the edit tests).
    #[cfg(test)]
    pub(crate) fn component_capacity(&self) -> usize {
        self.components.capacity()
    }

    /// Inserts `component` at `index`, shifting the suffix up
    /// (crate-internal: the [`EditView`](crate::incremental::EditView)
    /// structural-edit path).  Every derived state — utilization, the
    /// `U > 1` comparison, order, kernel, horizon — is stale afterwards;
    /// the caller must install it via
    /// [`PreparedWorkload::install_edited_state`] before the next query.
    pub(crate) fn insert_component_at(&mut self, index: usize, component: DemandComponent) {
        self.components.insert(index, component);
    }

    /// Removes and returns the component at `index`, shifting the suffix
    /// down (crate-internal, see
    /// [`PreparedWorkload::insert_component_at`]).  Shrinking edits
    /// **reuse** the column capacity — the debug assertion pins the
    /// `recycled`-style buffer-reuse contract: an admission service
    /// cycling through admit/evict sequences must not churn the
    /// allocator.
    pub(crate) fn remove_component_at(&mut self, index: usize) -> DemandComponent {
        let capacity = self.components.capacity();
        let removed = self.components.remove(index);
        debug_assert_eq!(
            self.components.capacity(),
            capacity,
            "a shrinking edit must reuse the component column's capacity"
        );
        removed
    }

    /// Replaces the component at `index` wholesale, returning the old one
    /// (crate-internal, see [`PreparedWorkload::insert_component_at`];
    /// unlike [`PreparedWorkload::write_component_at`] the cost and
    /// period may change, which is why every derived aggregate is stale
    /// until [`PreparedWorkload::install_edited_state`]).
    pub(crate) fn replace_component_at(
        &mut self,
        index: usize,
        component: DemandComponent,
    ) -> DemandComponent {
        let capacity = self.components.capacity();
        let old = std::mem::replace(&mut self.components[index], component);
        debug_assert_eq!(
            self.components.capacity(),
            capacity,
            "an in-place replacement must not touch the component column's capacity"
        );
        old
    }

    /// Installs the state matching the current component list after a
    /// batch of structural edits ([`PreparedWorkload::insert_component_at`]
    /// / [`PreparedWorkload::remove_component_at`] /
    /// [`PreparedWorkload::replace_component_at`]): the superset of
    /// [`PreparedWorkload::install_refreshed_state`] (utilization and the
    /// exact `U > 1` comparison moved) and
    /// [`PreparedWorkload::install_retimed_state`] (order and kernel
    /// layout moved), plus the task count.  `order` must be the stable
    /// ascending-`(first deadline, index)` order of the components; the
    /// kernel columns are rebuilt from it into their existing allocations
    /// re-using the caller's per-component period `reciprocals`, and the
    /// caller's analysis horizon replaces the cached one.
    pub(crate) fn install_edited_state(
        &mut self,
        task_count: usize,
        utilization: f64,
        exceeds_one: bool,
        order: Vec<usize>,
        horizon: Option<Time>,
        reciprocals: &[crate::arith::Reciprocal],
    ) {
        debug_assert_eq!(order.len(), self.components.len());
        debug_assert!(order.windows(2).all(|w| {
            let (a, b) = (&self.components[w[0]], &self.components[w[1]]);
            a.first_deadline() < b.first_deadline()
                || (a.first_deadline() == b.first_deadline() && w[0] < w[1])
        }));
        self.task_count = task_count;
        self.utilization = utilization;
        self.exceeds_one = exceeds_one;
        let mut kernel = self.kernel.take().unwrap_or_default();
        kernel.rebuild_with_reciprocals(&self.components, &order, reciprocals);
        let _ = self.kernel.set(kernel);
        self.deadline_order.take();
        let _ = self.deadline_order.set(order);
        self.install_horizon(horizon);
    }
}

impl Workload for PreparedWorkload {
    fn demand_components(&self) -> Vec<DemandComponent> {
        self.components.clone()
    }

    fn task_count(&self) -> usize {
        self.task_count
    }

    fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    fn utilization(&self) -> f64 {
        self.utilization
    }

    fn dbf(&self, interval: Time) -> Time {
        PreparedWorkload::dbf(self, interval)
    }

    fn rbf(&self, interval: Time) -> Time {
        PreparedWorkload::rbf(self, interval)
    }

    fn demand_is_exact(&self) -> bool {
        self.demand_exact
    }

    fn utilization_is_exact(&self) -> bool {
        self.utilization_exact
    }
}

/// Exact `Σ Cᵢ/Tᵢ > 1` over the periodic components (one-shots have no
/// long-run rate), evaluated with the crate's rational arithmetic and
/// without allocation (this runs once per sensitivity probe).
pub(crate) fn components_exceed_one(components: &[DemandComponent]) -> bool {
    !fracs_le_integer_iter(
        components
            .iter()
            .filter_map(|c| c.period.map(|p| (c.wcet.as_u128(), p.as_u128()))),
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{dbf_set, rbf_set};
    use edf_model::EventStream;

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn burst(count: u64, inner: u64, outer: u64, c: u64, d: u64) -> EventStreamTask {
        EventStreamTask::new(
            EventStream::bursty(count, Time::new(inner), Time::new(outer)),
            Time::new(c),
            Time::new(d),
        )
        .expect("valid event stream task")
    }

    #[test]
    fn task_set_components_reproduce_dbf_and_rbf() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 4), t(2, 6, 8), t(3, 10, 20)]);
        let prepared = PreparedWorkload::new(&ts);
        assert_eq!(prepared.components().len(), 3);
        for i in 0..120u64 {
            let i = Time::new(i);
            assert_eq!(prepared.dbf(i), dbf_set(&ts, i), "dbf at {i}");
            assert_eq!(prepared.rbf(i), rbf_set(&ts, i), "rbf at {i}");
        }
        assert!(!prepared.utilization_exceeds_one());
        assert!((prepared.utilization() - ts.utilization()).abs() < 1e-12);
    }

    #[test]
    fn stream_task_components_reproduce_stream_dbf() {
        let task = burst(3, 5, 100, 4, 20);
        let prepared = PreparedWorkload::new(&task);
        assert_eq!(prepared.components().len(), 3);
        assert_eq!(prepared.task_count(), 1);
        for i in 0..400u64 {
            let i = Time::new(i);
            assert_eq!(prepared.dbf(i), task.dbf(i), "dbf at {i}");
        }
        assert!((prepared.utilization() - task.utilization()).abs() < 1e-12);
    }

    #[test]
    fn one_shot_tuple_contributes_once() {
        let stream = EventStream::new(vec![
            edf_model::EventTuple::periodic(Time::new(50), Time::ZERO),
            edf_model::EventTuple::single(Time::new(7)),
        ])
        .unwrap();
        let task = EventStreamTask::new(stream, Time::new(3), Time::new(10)).unwrap();
        let prepared = PreparedWorkload::new(&task);
        for i in 0..300u64 {
            let i = Time::new(i);
            assert_eq!(prepared.dbf(i), task.dbf(i), "dbf at {i}");
        }
        // The one-shot component saturates.
        let one_shot = prepared
            .components()
            .iter()
            .find(|c| c.period().is_none())
            .expect("one-shot present");
        assert_eq!(one_shot.first_deadline(), Time::new(17));
        assert_eq!(one_shot.dbf(Time::new(1_000)), Time::new(3));
        assert_eq!(one_shot.next_deadline_after(Time::new(17)), None);
        assert_eq!(one_shot.max_test_interval(9), Time::new(17));
    }

    #[test]
    fn mixed_system_components_are_the_union() {
        let system = MixedSystem::new(
            TaskSet::from_tasks(vec![t(1, 5, 20)]),
            vec![burst(2, 3, 50, 2, 10)],
        );
        let prepared = PreparedWorkload::new(&system);
        assert_eq!(prepared.components().len(), 1 + 2);
        assert_eq!(prepared.task_count(), 2);
        for i in 0..200u64 {
            let i = Time::new(i);
            assert_eq!(prepared.dbf(i), system.demand(i));
        }
    }

    #[test]
    fn demand_events_are_sorted_and_complete() {
        let system = MixedSystem::new(
            TaskSet::from_tasks(vec![t(1, 5, 20)]),
            vec![burst(2, 3, 50, 2, 10)],
        );
        let prepared = PreparedWorkload::new(&system);
        let horizon = Time::new(70);
        let events: Vec<DemandEvent> = prepared.demand_events(horizon).collect();
        for pair in events.windows(2) {
            assert!(pair[0].interval <= pair[1].interval);
        }
        // Demand increases exactly at the event intervals.
        let intervals: Vec<Time> = events.iter().map(|e| e.interval).collect();
        for i in 1..=horizon.as_u64() {
            let i = Time::new(i);
            let grew = prepared.dbf(i) > prepared.dbf(i - Time::ONE);
            assert_eq!(grew, intervals.contains(&i), "at {i}");
        }
        // Expected stream deadlines: events at 0, 3, 50, 53 offset by 10.
        for expected in [5u64, 25, 45, 65, 10, 13, 60, 63] {
            assert!(
                intervals.contains(&Time::new(expected)),
                "missing {expected}"
            );
        }
    }

    #[test]
    fn next_demand_point_matches_event_enumeration() {
        let ts = TaskSet::from_tasks(vec![t(1, 3, 5), t(1, 4, 10)]);
        // deadlines: 3, 4, 8, 13, 14, 18, ...
        assert_eq!(ts.next_demand_point(Time::ZERO), Some(Time::new(3)));
        assert_eq!(ts.next_demand_point(Time::new(3)), Some(Time::new(4)));
        assert_eq!(ts.next_demand_point(Time::new(4)), Some(Time::new(8)));
        assert_eq!(ts.next_demand_point(Time::new(8)), Some(Time::new(13)));
    }

    #[test]
    fn last_deadline_below_matches_enumeration() {
        let ts = TaskSet::from_tasks(vec![t(1, 3, 5), t(1, 4, 10)]);
        let prepared = PreparedWorkload::new(&ts);
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
    fn exact_utilization_comparison() {
        let full = PreparedWorkload::new(&TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]));
        assert!(!full.utilization_exceeds_one());
        let over = PreparedWorkload::new(&TaskSet::from_tasks(vec![
            t(1, 2, 2),
            t(2, 4, 4),
            t(1, 9, 9),
        ]));
        assert!(over.utilization_exceeds_one());
    }

    #[test]
    fn deadline_order_is_sorted_and_stable() {
        let ts = TaskSet::from_tasks(vec![t(2, 20, 40), t(1, 3, 9), t(1, 7, 14), t(1, 3, 5)]);
        let prepared = PreparedWorkload::new(&ts);
        let order = prepared.deadline_order();
        assert_eq!(order.len(), 4);
        for pair in order.windows(2) {
            let a = prepared.components()[pair[0]].first_deadline();
            let b = prepared.components()[pair[1]].first_deadline();
            assert!(a <= b);
        }
        // Stable: the two deadline-3 tasks keep their input order.
        assert_eq!(&order[..2], &[1, 3]);
    }

    #[test]
    fn scaled_wcets_clamp_to_period() {
        let ts = TaskSet::from_tasks(vec![t(2, 8, 10)]);
        let prepared = PreparedWorkload::new(&ts);
        let doubled = prepared.with_scaled_wcets(2_000, 1_000);
        assert_eq!(doubled.components()[0].wcet(), Time::new(4));
        let huge = prepared.with_scaled_wcets(1_000_000, 1_000);
        assert_eq!(huge.components()[0].wcet(), Time::new(10));
        // Ceiling rounding: any positive scaling of a positive cost stays
        // at least one tick.
        let tiny = prepared.with_scaled_wcets(1, 1_000);
        assert_eq!(tiny.components()[0].wcet(), Time::ONE);
    }

    #[test]
    fn scaled_wcets_keep_zero_costs_representable() {
        // Regression test for the former `.max(Time::ONE)` floor, which
        // silently inflated zero scalings (and zero-cost components) to one
        // tick and thereby distorted reported breakdown utilizations.
        let ts = TaskSet::from_tasks(vec![t(2, 8, 10), t(1, 4, 5)]);
        let prepared = PreparedWorkload::new(&ts);
        let zeroed = prepared.with_scaled_wcets(0, 1_000);
        assert!(zeroed.components().iter().all(|c| c.wcet().is_zero()));
        assert_eq!(zeroed.utilization(), 0.0);
        assert!(!zeroed.utilization_exceeds_one());
        assert_eq!(zeroed.dbf(Time::new(1_000)), Time::ZERO);
        // Zero-cost components flow through every registered test.
        for test in crate::all_tests() {
            assert!(
                !test.analyze_prepared(&zeroed).verdict.is_infeasible(),
                "{} rejected a zero-demand workload",
                test.name()
            );
        }
        // A zero-cost component stays zero under any scaling instead of
        // being inflated to a tick.
        let with_zero = PreparedWorkload::from_components(vec![
            DemandComponent::periodic(Time::ZERO, Time::new(4), Time::new(10)),
            DemandComponent::periodic(Time::new(2), Time::new(8), Time::new(10)),
        ]);
        let scaled = with_zero.with_scaled_wcets(3_000, 1_000);
        assert_eq!(scaled.components()[0].wcet(), Time::ZERO);
        assert_eq!(scaled.components()[1].wcet(), Time::new(6));
        // And the per-component helper agrees.
        assert_eq!(
            with_zero.components()[0].scaled_wcet(5_000, 1_000),
            Time::ZERO
        );
    }

    #[test]
    fn demand_exactness_is_tracked_per_model() {
        use edf_model::{AffineSegment, ArrivalCurve, ArrivalCurveTask, TransactionPart};

        let ts = TaskSet::from_tasks(vec![t(1, 4, 8)]);
        assert!(Workload::demand_is_exact(&ts));
        assert!(PreparedWorkload::new(&ts).demand_is_exact());

        let curve =
            ArrivalCurve::from_affine_segments(&[AffineSegment::new(2, Time::new(10))]).unwrap();
        let exact = ArrivalCurveTask::new(curve, Time::new(1), Time::new(5)).unwrap();
        assert!(exact.demand_is_exact());
        let conservative = exact.clone().conservative();
        assert!(!conservative.demand_is_exact());
        assert!(!PreparedWorkload::new(&conservative).demand_is_exact());
        // A one-shot-only curve has no envelope: conservative mode falls
        // back to the exact decomposition and stays exact.
        let one_shot = ArrivalCurveTask::new(
            ArrivalCurve::new(vec![edf_model::EventTuple::single(Time::new(3))]).unwrap(),
            Time::new(1),
            Time::new(5),
        )
        .unwrap()
        .conservative();
        assert!(one_shot.demand_is_exact());

        let part = |o, c, d| TransactionPart::new(Time::new(o), Time::new(c), Time::new(d));
        let offset_free =
            Transaction::new(Time::new(10), vec![part(0, 1, 3), part(0, 2, 5)]).unwrap();
        assert!(offset_free.demand_is_exact());
        let offset = Transaction::new(Time::new(10), vec![part(0, 1, 3), part(4, 2, 5)]).unwrap();
        assert!(!offset.demand_is_exact());
        let system = TransactionSystem::new(TaskSet::new(), vec![offset]);
        assert!(!Workload::demand_is_exact(&system));
        let boxed: Box<dyn Workload + Send + Sync> = Box::new(system);
        assert!(!boxed.demand_is_exact());
        // Scaling preserves the flag.
        assert!(!PreparedWorkload::new(&boxed)
            .with_scaled_wcets(2, 1)
            .demand_is_exact());
    }

    #[test]
    fn rbf_of_offset_component_counts_releases() {
        let c =
            DemandComponent::periodic_from(Time::new(2), Time::new(4), Time::new(10), Time::new(3));
        // Releases at 3, 13, 23, ... (half-open window [0, I)).
        assert_eq!(c.rbf(Time::ZERO), Time::ZERO);
        assert_eq!(c.rbf(Time::new(3)), Time::ZERO);
        assert_eq!(c.rbf(Time::new(4)), Time::new(2));
        assert_eq!(c.rbf(Time::new(13)), Time::new(2));
        assert_eq!(c.rbf(Time::new(14)), Time::new(4));
        // And the deadline is shifted by the offset.
        assert_eq!(c.first_deadline(), Time::new(7));
    }
}
