//! Incremental re-analysis: scale-aware prepared-workload views.
//!
//! The point of the paper is an exact feasibility test cheap enough to run
//! *inside a search loop* — and a search loop perturbs one workload over
//! and over, changing nothing but the execution costs.  Re-running
//! [`PreparedWorkload::new`] (or
//! [`PreparedWorkload::with_scaled_wcets`]) per probe therefore throws
//! away state that is valid for every probe:
//!
//! * the **component vector layout** — probes rewrite the cost column in
//!   place instead of reallocating; since the columnar-kernel rebuild
//!   this is literally a column write into the scratch preparation's
//!   [`DemandKernel`](crate::kernel::DemandKernel) (deadline, period and
//!   sort columns are scale-invariant and never move);
//! * the **deadline order** — periods, deadlines and offsets do not move
//!   under WCET changes, so the sorted order computed once for the base
//!   workload is seeded into the view and shared by every probe;
//! * the **scale-invariant half of the §4.3 analysis horizon** — the
//!   hyperperiod bound is WCET-free and the structural aggregates of the
//!   George and busy-period bounds are fixed, so a [`BoundRefresher`]
//!   re-derives the horizon from cached aggregates and a hint-seeded
//!   search instead of from cold (see [`crate::bounds`]).  Views keep
//!   only the horizon; the full bounds of
//!   [`PreparedWorkload::bounds`] are computed cold, on request.
//!
//! [`ScaledView`] packages all three behind two probe operations:
//! [`ScaledView::scale_wcets`] (uniform scaling — breakdown searches) and
//! [`ScaledView::with_component_wcet`] (a single perturbed component —
//! slack searches).  Every probe returns an ordinary
//! [`&PreparedWorkload`](PreparedWorkload) whose observable state is
//! **bit-identical** to a from-scratch preparation of the same scaled
//! components, so every [`FeasibilityTest`](crate::FeasibilityTest) —
//! and any future consumer of prepared workloads — runs on a view
//! unchanged.  [`crate::sensitivity`] is built on top of this module.
//!
//! # The view family
//!
//! Three views share the pattern "one scratch preparation, mutated in
//! place, repaired incrementally", one per axis of change:
//!
//! | view | may mutate | repair path | refresh cost |
//! |------|-----------|-------------|--------------|
//! | [`ScaledView`] | WCETs only | column rewrite + hinted horizon refresh | `O(n)` + a few George predicates + the cut busy-period fix-point |
//! | [`CandidateView`](crate::candidates::CandidateView) | one transaction's offsets/deadlines | merge-of-sorted-runs order repair, in-place kernel rebuild, hinted horizon refresh | `O(n)` + the horizon refresh |
//! | [`EditView`] | the component **set** (insert/remove/replace) | per-edit binary order repair, full aggregate + kernel + horizon refresh at finalize | `O(log n)` per edit + `O(n)` + the horizon refresh per finalize |
//!
//! All three implement [`WorkloadView`] — finalize to a
//! [`&PreparedWorkload`](PreparedWorkload), dirty-tracking, revert — so
//! any registered test drives any view through
//! [`FeasibilityTest::analyze_view`](crate::FeasibilityTest::analyze_view)
//! (or the scratch-reusing
//! [`analyze_view_with`](crate::FeasibilityTest::analyze_view_with)).
//! [`EditView`] is the admission-control member: a long-running service
//! holds one per tenant and answers admit / evict / what-if requests
//! through structural edits plus delta re-analysis instead of cold
//! preparation (see the `edf-serve` crate).
//!
//! # Examples
//!
//! ```
//! use edf_analysis::incremental::ScaledView;
//! use edf_analysis::tests::AllApproximatedTest;
//! use edf_analysis::workload::PreparedWorkload;
//! use edf_analysis::FeasibilityTest;
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(2), Time::new(7), Time::new(10))?,
//!     Task::new(Time::new(3), Time::new(9), Time::new(25))?,
//! ]);
//! let base = PreparedWorkload::new(&ts);
//! let mut view = ScaledView::new(&base);
//! let test = AllApproximatedTest::new();
//! // Probe a range of uniform scalings without re-preparing anything.
//! for numer in [500u64, 1_000, 2_000, 3_000] {
//!     let scaled = view.scale_wcets(numer, 1_000);
//!     let _ = test.analyze_prepared(scaled);
//! }
//! # Ok(())
//! # }
//! ```

use edf_model::Time;

use crate::arith::Reciprocal;
use crate::bounds::BoundRefresher;
use crate::workload::{components_exceed_one, DemandComponent, PreparedWorkload};

/// The common interface of the incremental view family ([`ScaledView`],
/// [`CandidateView`](crate::candidates::CandidateView), [`EditView`]):
/// one scratch [`PreparedWorkload`] mutated in place, finalized on
/// demand, with pending (unfinalized or uncommitted) mutations
/// revertible.
///
/// The trait is object-safe, so
/// [`FeasibilityTest::analyze_view`](crate::FeasibilityTest::analyze_view)
/// accepts `&mut dyn WorkloadView` — every registered test drives every
/// view through one entry point, and the finalized state is always
/// **bit-identical** to a cold preparation of the same component list
/// (property-tested per view in `incremental_equivalence`,
/// `candidate_equivalence` and `edit_equivalence`).
pub trait WorkloadView {
    /// Applies any pending mutations (order repair, kernel rebuild,
    /// horizon refresh) and returns the finalized prepared state.
    fn finalize(&mut self) -> &PreparedWorkload;

    /// `true` while mutations are pending that [`WorkloadView::finalize`]
    /// has not yet folded into the prepared state.  Views with eager
    /// repair ([`ScaledView`]) are never dirty.
    fn is_dirty(&self) -> bool;

    /// Discards pending mutations, returning the view to its last stable
    /// state: the base costs for a [`ScaledView`], the last finalized
    /// combination for a
    /// [`CandidateView`](crate::candidates::CandidateView), the last
    /// [`EditView::commit`] point for an [`EditView`].
    fn revert(&mut self);

    /// `true` once the view has been [poisoned](WorkloadView::mark_poisoned):
    /// a panic unwound through a mutation or an analysis of this view, so
    /// its scratch state can no longer be trusted and must be rebuilt from
    /// a known-good source before further use.  The default is `false` —
    /// borrow-based views ([`ScaledView`],
    /// [`CandidateView`](crate::candidates::CandidateView)) live inside
    /// one search call and are simply dropped when a panic unwinds, so
    /// they never observe poisoning.
    fn is_poisoned(&self) -> bool {
        false
    }

    /// Marks the view poisoned (see [`WorkloadView::is_poisoned`]).  A
    /// fault-isolating caller ([`catch_unwind`](std::panic::catch_unwind)
    /// around per-request analysis) calls this when a panic unwinds while
    /// the view's scratch state may be mid-mutation; the owner then
    /// rebuilds the view cold ([`EditView::rebuild_from`]) from its last
    /// committed source of truth.  No-op for views that do not support
    /// poisoning.
    fn mark_poisoned(&mut self) {}
}

/// A re-costable view of a [`PreparedWorkload`]: one scratch preparation,
/// rewritten in place per probe, sharing everything that is invariant
/// under WCET changes with the base workload.
///
/// See the [module documentation](self) for what is shared and why; see
/// [`ScaledView::scale_wcets`] / [`ScaledView::with_component_wcet`] for
/// the probe operations.
#[derive(Debug)]
pub struct ScaledView<'a> {
    base: &'a PreparedWorkload,
    scratch: PreparedWorkload,
    refresher: BoundRefresher,
}

impl<'a> ScaledView<'a> {
    /// Creates a view over `base`.  The scratch preparation starts as an
    /// identical copy; the deadline order is computed once (on the base,
    /// where it is cached for other users too) and shared.
    #[must_use]
    pub fn new(base: &'a PreparedWorkload) -> Self {
        let mut scratch = PreparedWorkload::from_parts(
            base.components().to_vec(),
            base.task_count(),
            base.demand_is_exact(),
            base.utilization_is_exact(),
        );
        scratch.seed_deadline_order(base.deadline_order().to_vec());
        // A view over the scalar-reference oracle probes through the
        // scalar path too, so the kernel-equivalence tests can compare
        // whole search runs.
        scratch.scalar_demand = base.scalar_demand;
        ScaledView {
            refresher: BoundRefresher::new(base.components()),
            base,
            scratch,
        }
    }

    /// The base workload the view scales.
    #[must_use]
    pub fn base(&self) -> &PreparedWorkload {
        self.base
    }

    /// The prepared state of the most recent probe (initially an identical
    /// copy of the base).
    #[must_use]
    pub fn prepared(&self) -> &PreparedWorkload {
        &self.scratch
    }

    /// Probes a uniform scaling: every **base** cost is scaled by
    /// `numer/denom` (semantics of [`DemandComponent::scaled_wcet`] —
    /// successive probes do not compound).  Returns the refreshed prepared
    /// workload, observably identical to
    /// `base.with_scaled_wcets(numer, denom)` but without re-preparation.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn scale_wcets(&mut self, numer: u64, denom: u64) -> &PreparedWorkload {
        assert!(denom > 0, "scaling denominator must be positive");
        for (index, component) in self.base.components().iter().enumerate() {
            self.scratch
                .set_wcet_at(index, component.scaled_wcet(numer, denom));
        }
        self.refresh()
    }

    /// Probes a single-component perturbation: every component keeps its
    /// **base** cost except `index`, which is set to `wcet` (clamped to
    /// the component's period, mirroring [`DemandComponent::scaled_wcet`];
    /// probes do not compound).  This is the `wcet_slack` workhorse.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_component_wcet(&mut self, index: usize, wcet: Time) -> &PreparedWorkload {
        let components = self.base.components();
        assert!(index < components.len(), "component index out of range");
        for (i, component) in components.iter().enumerate() {
            self.scratch.set_wcet_at(i, component.wcet());
        }
        self.scratch
            .set_wcet_at(index, components[index].clamp_wcet(wcet));
        self.refresh()
    }

    /// Recomputes the cost-dependent aggregates of the scratch workload in
    /// one linear pass plus the hint-seeded horizon refresh (a linear
    /// hyperperiod lookup when the probe pushes the utilization above one).
    fn refresh(&mut self) -> &PreparedWorkload {
        let components = self.scratch.components();
        let utilization = components.iter().map(DemandComponent::utilization).sum();
        let exceeds_one = components_exceed_one(components);
        let horizon = self.refresher.horizon(components, exceeds_one);
        self.scratch
            .install_refreshed_state(utilization, exceeds_one, horizon);
        &self.scratch
    }
}

impl WorkloadView for ScaledView<'_> {
    /// The prepared state of the most recent probe — probes repair
    /// eagerly, so there is never pending work to apply.
    fn finalize(&mut self) -> &PreparedWorkload {
        &self.scratch
    }

    fn is_dirty(&self) -> bool {
        false
    }

    /// Restores the base costs (the state the view was created in),
    /// eagerly — equivalent to a `scale_wcets(1, 1)` probe but copying
    /// the base costs verbatim, so components whose base cost exceeds
    /// their period (infeasible inputs kept for honest rejection) survive
    /// the round trip unclamped.
    fn revert(&mut self) {
        for (index, component) in self.base.components().iter().enumerate() {
            self.scratch.set_wcet_at(index, component.wcet());
        }
        self.refresh();
    }
}

/// The inverse of one structural edit, recorded by [`EditView`] for
/// [`EditView::revert`].
#[derive(Debug, Clone, Copy)]
enum EditOp {
    /// Undoes an [`EditView::insert_component`] (which always appends).
    RemoveLast,
    /// Undoes an [`EditView::remove_component`]: re-insert the removed
    /// component at its old index.
    InsertAt(usize, DemandComponent),
    /// Undoes an [`EditView::replace_component`]: write the old component
    /// back.
    WriteAt(usize, DemandComponent),
}

/// A structurally editable prepared workload: insert, remove or replace
/// components of one scratch [`PreparedWorkload`], with the derived state
/// repaired incrementally instead of re-prepared from cold.
///
/// The third member of the view family (see the [module
/// documentation](self)), and the one production admission control needs:
/// where [`ScaledView`] perturbs costs and
/// [`CandidateView`](crate::candidates::CandidateView) re-phases one
/// transaction, `EditView` changes the component **set** itself — the
/// admit / evict / what-if loop of a long-running service.  Unlike the
/// other two it owns its state outright (no borrow of a base workload),
/// so a service can hold thousands of them, one per tenant, indefinitely.
///
/// What is incremental about an edit:
///
/// * the **deadline order** is repaired per edit by binary
///   insertion/removal of the touched index — the degenerate (single-run)
///   case of the [`CandidateView`](crate::candidates::CandidateView)
///   merge-of-sorted-runs repair, `O(log n)` search plus one `memmove`
///   instead of a re-sort;
/// * the **period reciprocals** feeding the kernel columns and the bound
///   searches are recomputed only for the touched index (a 128-bit
///   division each; the untouched ones are copied);
/// * the **kernel columns** are rebuilt in place into their existing
///   allocations
///   ([`DemandKernel::rebuild_with_reciprocals`](crate::kernel::DemandKernel));
/// * the **§4.3 analysis horizon** is re-derived by the crate-internal
///   `BoundRefresher::horizon_edited` — one linear aggregate pass, the
///   hint-seeded George search (the hint carried across edits) and the
///   busy-period fix-point, stopped once it cannot be the minimum;
/// * shrinking edits (remove/replace) **reuse the column capacity** —
///   debug assertions pin that an admit/evict cycle never churns the
///   allocator (the `recycled`-style buffer-reuse contract).
///
/// Repair is *lazy*: edits only patch the component vector and the order,
/// and the aggregate/kernel/horizon refresh runs once inside
/// [`EditView::prepared`] (or [`WorkloadView::finalize`]), so a burst of
/// edits pays for one refresh.  The finalized state is **bit-identical**
/// to a cold [`PreparedWorkload`] of the same component list
/// (property-tested in `edit_equivalence`).
///
/// Edits accumulate in an undo log until [`EditView::commit`] accepts
/// them or [`EditView::revert`] rolls them back — the admit (analyze,
/// then commit or revert by verdict) and what-if (analyze, always revert)
/// primitives of an admission service.
///
/// # Examples
///
/// ```
/// use edf_analysis::incremental::EditView;
/// use edf_analysis::tests::ProcessorDemandTest;
/// use edf_analysis::workload::{DemandComponent, PreparedWorkload};
/// use edf_analysis::FeasibilityTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let base = PreparedWorkload::new(&TaskSet::from_tasks(vec![
///     Task::new(Time::new(2), Time::new(7), Time::new(10))?,
/// ]));
/// let mut view = EditView::new(&base);
/// let test = ProcessorDemandTest::new();
/// // Admit a task: insert, analyze the delta, commit on acceptance.
/// view.insert_component(DemandComponent::periodic(
///     Time::new(3),
///     Time::new(9),
///     Time::new(25),
/// ));
/// if test.analyze_prepared(view.prepared()).is_feasible() {
///     view.commit();
/// } else {
///     use edf_analysis::incremental::WorkloadView;
///     view.revert();
/// }
/// assert_eq!(view.components().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EditView {
    scratch: PreparedWorkload,
    refresher: BoundRefresher,
    /// Per-component period reciprocals, maintained parallel to the
    /// component vector (recomputed only for touched indices).
    reciprocals: Vec<Reciprocal>,
    /// The deadline order under maintenance while dirty (taken out of the
    /// scratch on the first edit, handed back at finalize); empty while
    /// clean.
    order: Vec<usize>,
    /// Source-workload task count, tracked as base ± net structural edits
    /// (metadata only — no analysis reads it).
    task_count: usize,
    /// `true` while the scratch's derived state (aggregates, order,
    /// kernel, horizon) lags behind the component vector.
    dirty: bool,
    /// Inverses of the edits since the last [`EditView::commit`], newest
    /// last.
    undo: Vec<EditOp>,
    /// Set by [`WorkloadView::mark_poisoned`] after a panic unwound
    /// through a mutation or analysis of this view; cleared only by
    /// [`EditView::rebuild_from`].
    poisoned: bool,
}

impl EditView {
    /// Creates an editable copy of `base`.  The scratch starts
    /// bit-identical (the deadline order is computed once on the base,
    /// where it is cached for other users too, and copied).
    #[must_use]
    pub fn new(base: &PreparedWorkload) -> Self {
        let mut scratch = PreparedWorkload::from_parts(
            base.components().to_vec(),
            base.task_count(),
            base.demand_is_exact(),
            base.utilization_is_exact(),
        );
        scratch.seed_deadline_order(base.deadline_order().to_vec());
        // A view over the scalar-reference oracle keeps probing through
        // the scalar path (mirrors `ScaledView::new`).
        scratch.scalar_demand = base.scalar_demand;
        EditView {
            refresher: BoundRefresher::new(base.components()),
            reciprocals: base.components().iter().map(reciprocal_of).collect(),
            order: Vec::new(),
            task_count: base.task_count(),
            dirty: false,
            undo: Vec::new(),
            poisoned: false,
            scratch,
        }
    }

    /// Rebuilds the view cold from `base`, discarding every bit of scratch
    /// state (components, order, undo log, bound caches) and clearing any
    /// [poison](WorkloadView::is_poisoned).  This is the recovery hook a
    /// fault-isolating service uses after a panic unwound through this
    /// view: the base is the tenant's last committed (journal-backed)
    /// state, so one bad request can never leave a corrupted view behind.
    pub fn rebuild_from(&mut self, base: &PreparedWorkload) {
        *self = EditView::new(base);
    }

    /// The current component vector — always up to date, even between an
    /// edit and the finalize (a screening heuristic can read this without
    /// forcing the refresh).
    #[must_use]
    pub fn components(&self) -> &[DemandComponent] {
        self.scratch.components()
    }

    /// Appends `component`, returning its index (stable until a
    /// [`EditView::remove_component`] of a lower index shifts it).
    pub fn insert_component(&mut self, component: DemandComponent) -> usize {
        self.begin_edit();
        let index = self.scratch.components().len();
        self.scratch.insert_component_at(index, component);
        self.reciprocals.push(reciprocal_of(&component));
        self.order_insert_entry(index);
        self.task_count += 1;
        self.undo.push(EditOp::RemoveLast);
        index
    }

    /// Removes and returns the component at `index`; components above it
    /// shift down by one (the deadline order is repaired in place, no
    /// re-sort).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_component(&mut self, index: usize) -> DemandComponent {
        self.begin_edit();
        self.order_remove_entry(index);
        for entry in &mut self.order {
            *entry -= usize::from(*entry > index);
        }
        let removed = self.scratch.remove_component_at(index);
        self.reciprocals.remove(index);
        self.task_count = self.task_count.saturating_sub(1);
        self.undo.push(EditOp::InsertAt(index, removed));
        removed
    }

    /// Replaces the component at `index` wholesale (cost, timing *and*
    /// period may change — contrast
    /// [`ScaledView::with_component_wcet`]), returning the old component.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_component(
        &mut self,
        index: usize,
        component: DemandComponent,
    ) -> DemandComponent {
        let old = self.write_component(index, component);
        self.undo.push(EditOp::WriteAt(index, old));
        old
    }

    /// Whether edits since the last [`EditView::commit`] are pending.
    #[must_use]
    pub fn has_uncommitted_edits(&self) -> bool {
        !self.undo.is_empty()
    }

    /// Accepts the edits since the last commit: [`EditView::revert`] can
    /// no longer roll them back.
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// The prepared state of the current component list, applying any
    /// pending repair (aggregate recomputation, order hand-back, in-place
    /// kernel rebuild, hinted horizon refresh).  Observably identical to a
    /// cold [`PreparedWorkload`] of the same components.
    ///
    /// # Panics
    ///
    /// Panics if the view is [poisoned](WorkloadView::is_poisoned) — a
    /// poisoned scratch must be rebuilt via [`EditView::rebuild_from`]
    /// before it can be trusted again.
    pub fn prepared(&mut self) -> &PreparedWorkload {
        assert!(
            !self.poisoned,
            "EditView is poisoned (a panic unwound mid-mutation); rebuild_from a committed base"
        );
        if self.dirty {
            self.refresh();
        }
        &self.scratch
    }

    /// The finalized prepared state, without finalizing — the shared-borrow
    /// accessor the batch front end uses to collect one
    /// `&PreparedWorkload` per tenant after finalizing each view.
    ///
    /// # Panics
    ///
    /// Panics if the view is dirty (call [`EditView::prepared`] or
    /// [`WorkloadView::finalize`] first).
    #[must_use]
    pub fn finalized(&self) -> &PreparedWorkload {
        assert!(
            !self.dirty,
            "EditView::finalized requires a finalized view (call prepared() first)"
        );
        &self.scratch
    }

    /// Takes the deadline order into local maintenance on the first edit
    /// of a burst.
    fn begin_edit(&mut self) {
        if !self.dirty {
            self.order = self.scratch.take_deadline_order();
            debug_assert_eq!(self.order.len(), self.scratch.components().len());
            self.dirty = true;
        }
    }

    /// Binary-inserts `index` (whose component is already written) into
    /// the maintained order by its `(first deadline, index)` key.
    fn order_insert_entry(&mut self, index: usize) {
        let components = self.scratch.components();
        let key = (components[index].first_deadline(), index);
        let position = self
            .order
            .partition_point(|&i| (components[i].first_deadline(), i) < key);
        self.order.insert(position, index);
    }

    /// Binary-removes `index` from the maintained order by its current
    /// `(first deadline, index)` key.
    fn order_remove_entry(&mut self, index: usize) {
        let components = self.scratch.components();
        let key = (components[index].first_deadline(), index);
        let position = self
            .order
            .partition_point(|&i| (components[i].first_deadline(), i) < key);
        debug_assert_eq!(self.order[position], index);
        self.order.remove(position);
    }

    /// The shared write path of [`EditView::replace_component`] and the
    /// [`EditOp::WriteAt`] rollback: order out, component + reciprocal
    /// written, order back in under the new key.
    fn write_component(&mut self, index: usize, component: DemandComponent) -> DemandComponent {
        self.begin_edit();
        self.order_remove_entry(index);
        let old = self.scratch.replace_component_at(index, component);
        self.reciprocals[index] = reciprocal_of(&component);
        self.order_insert_entry(index);
        old
    }

    /// Recomputes the cost-and-structure-dependent aggregates and installs
    /// them with the maintained order (one summation pass in component
    /// order for `f64` bit-identity with a cold preparation, one exact
    /// `U > 1` pass, the structural horizon refresh, the in-place kernel
    /// rebuild).
    fn refresh(&mut self) {
        let components = self.scratch.components();
        let utilization = components.iter().map(DemandComponent::utilization).sum();
        let exceeds_one = components_exceed_one(components);
        let horizon = self
            .refresher
            .horizon_edited(components, exceeds_one, &self.reciprocals);
        let order = std::mem::take(&mut self.order);
        self.scratch.install_edited_state(
            self.task_count,
            utilization,
            exceeds_one,
            order,
            horizon,
            &self.reciprocals,
        );
        self.dirty = false;
    }
}

impl WorkloadView for EditView {
    fn finalize(&mut self) -> &PreparedWorkload {
        self.prepared()
    }

    fn is_dirty(&self) -> bool {
        self.dirty
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn mark_poisoned(&mut self) {
        self.poisoned = true;
    }

    /// Rolls back every edit since the last [`EditView::commit`] by
    /// replaying the undo log in reverse; the repair runs lazily at the
    /// next finalize.
    fn revert(&mut self) {
        if !self.undo.is_empty() {
            // The edits may already be finalized (admit-then-reject flows
            // analyze before deciding); re-enter edit mode so the order is
            // under local maintenance again.
            self.begin_edit();
        }
        while let Some(op) = self.undo.pop() {
            match op {
                EditOp::RemoveLast => {
                    let index = self.scratch.components().len() - 1;
                    self.order_remove_entry(index);
                    let _ = self.scratch.remove_component_at(index);
                    self.reciprocals.pop();
                    self.task_count = self.task_count.saturating_sub(1);
                }
                EditOp::InsertAt(index, component) => {
                    for entry in &mut self.order {
                        *entry += usize::from(*entry >= index);
                    }
                    self.scratch.insert_component_at(index, component);
                    self.reciprocals.insert(index, reciprocal_of(&component));
                    self.order_insert_entry(index);
                    self.task_count += 1;
                }
                EditOp::WriteAt(index, component) => {
                    self.order_remove_entry(index);
                    let _ = self.scratch.replace_component_at(index, component);
                    self.reciprocals[index] = reciprocal_of(&component);
                    self.order_insert_entry(index);
                }
            }
        }
    }
}

/// The period reciprocal of one component (one-shots use the divisor-1
/// sentinel, matching [`BoundRefresher::new`] and the kernel's cache
/// contract).
fn reciprocal_of(component: &DemandComponent) -> Reciprocal {
    Reciprocal::new(component.period().map_or(1, Time::as_u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{AllApproximatedTest, ProcessorDemandTest, QpaTest};
    use crate::workload::MixedSystem;
    use crate::FeasibilityTest;
    use edf_model::{EventStream, EventStreamTask, Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn sample_system() -> MixedSystem {
        MixedSystem::new(
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            vec![EventStreamTask::new(
                EventStream::bursty(2, Time::new(4), Time::new(60)),
                Time::new(1),
                Time::new(12),
            )
            .expect("valid stream task")],
        )
    }

    /// Full observable-state comparison between a view probe and a cold
    /// re-preparation.
    fn assert_matches_cold(view: &PreparedWorkload, cold: &PreparedWorkload) {
        assert_eq!(view.components(), cold.components());
        assert_eq!(view.task_count(), cold.task_count());
        assert_eq!(view.utilization().to_bits(), cold.utilization().to_bits());
        assert_eq!(
            view.utilization_exceeds_one(),
            cold.utilization_exceeds_one()
        );
        assert_eq!(view.demand_is_exact(), cold.demand_is_exact());
        assert_eq!(view.utilization_is_exact(), cold.utilization_is_exact());
        assert_eq!(view.analysis_horizon(), cold.bounds().analysis_horizon());
        assert_eq!(view.bounds(), cold.bounds());
        assert_eq!(view.deadline_order(), cold.deadline_order());
        for test in [
            Box::new(ProcessorDemandTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(QpaTest::new()),
            Box::new(AllApproximatedTest::new()),
        ] {
            assert_eq!(
                test.analyze_prepared(view),
                test.analyze_prepared(cold),
                "{} diverges between view and cold preparation",
                test.name()
            );
        }
    }

    #[test]
    fn scaling_probes_match_cold_preparation() {
        let system = sample_system();
        let base = PreparedWorkload::new(&system);
        let mut view = ScaledView::new(&base);
        // Includes overload scalings (bounds skipped) sandwiched between
        // feasible ones, so stale-bound leakage would be caught.
        for numer in [1_000u64, 500, 2_000, 1_250, 0, 1_000, 4_000, 900] {
            let probed = view.scale_wcets(numer, 1_000);
            let cold = base.with_scaled_wcets(numer, 1_000);
            assert_matches_cold(probed, &cold);
        }
    }

    #[test]
    fn component_probes_match_cold_preparation() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = ScaledView::new(&base);
        for index in 0..base.components().len() {
            for wcet in [0u64, 1, 3, 7, 100] {
                let probed = view.with_component_wcet(index, Time::new(wcet));
                let mut components = base.components().to_vec();
                let clamped = match components[index].period() {
                    Some(period) => Time::new(wcet).min(period),
                    None => Time::new(wcet),
                };
                components[index].set_wcet(clamped);
                let cold = PreparedWorkload::from_parts(
                    components,
                    base.task_count(),
                    base.demand_is_exact(),
                    base.utilization_is_exact(),
                );
                assert_matches_cold(probed, &cold);
            }
        }
    }

    #[test]
    fn probe_kinds_interleave_without_leakage() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = ScaledView::new(&base);
        view.scale_wcets(3_000, 1_000);
        // A component probe after a scaling probe starts from base costs,
        // not from the scaled ones.
        let probed = view.with_component_wcet(0, Time::new(2));
        assert_eq!(probed.components()[1], base.components()[1]);
        view.with_component_wcet(2, Time::new(6));
        // And a scaling probe resets the component perturbation.
        let rescaled = view.scale_wcets(1_000, 1_000);
        assert_eq!(rescaled.components(), base.components());
    }

    #[test]
    fn view_accessors_and_empty_workload() {
        let base = PreparedWorkload::new(&TaskSet::new());
        let mut view = ScaledView::new(&base);
        assert!(view.base().is_empty());
        assert!(view.prepared().is_empty());
        assert!(view.scale_wcets(2_000, 1_000).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_component_probe_panics() {
        let base = PreparedWorkload::new(&TaskSet::from_tasks(vec![t(1, 4, 8)]));
        let mut view = ScaledView::new(&base);
        let _ = view.with_component_wcet(1, Time::new(2));
    }

    #[test]
    fn scaled_view_revert_restores_base_state() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = ScaledView::new(&base);
        view.scale_wcets(3_000, 1_000);
        assert!(!view.is_dirty());
        view.revert();
        let cold = PreparedWorkload::from_parts(
            base.components().to_vec(),
            base.task_count(),
            base.demand_is_exact(),
            base.utilization_is_exact(),
        );
        assert_matches_cold(view.finalize(), &cold);
    }

    /// Cold preparation of an edit view's current components, carrying the
    /// view's metadata so the full observable state is comparable.
    fn cold_of(view: &mut EditView) -> PreparedWorkload {
        let prepared = view.prepared();
        PreparedWorkload::from_parts(
            prepared.components().to_vec(),
            prepared.task_count(),
            prepared.demand_is_exact(),
            prepared.utilization_is_exact(),
        )
    }

    #[test]
    fn edit_sequence_matches_cold_preparation() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        // Untouched view is already bit-identical.
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Insert a periodic and a one-shot component.
        let count = base.components().len();
        let periodic = DemandComponent::periodic(Time::new(2), Time::new(5), Time::new(30));
        let one_shot = DemandComponent::one_shot(Time::new(1), Time::new(3), Time::new(7));
        assert_eq!(view.insert_component(periodic), count);
        assert_eq!(view.insert_component(one_shot), count + 1);
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Remove from the middle (indices shift), replace with a different
        // period, edit again without an intervening finalize.
        let removed = view.remove_component(1);
        assert_eq!(removed, base.components()[1]);
        let replaced = view.replace_component(
            0,
            DemandComponent::periodic(Time::new(3), Time::new(4), Time::new(11)),
        );
        assert_eq!(replaced, base.components()[0]);
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        view.commit();
        assert!(!view.has_uncommitted_edits());
    }

    #[test]
    fn edit_revert_rolls_back_to_last_commit() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        let admitted = view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(9),
            Time::new(40),
        ));
        view.prepared();
        view.commit();
        let committed: Vec<DemandComponent> = view.components().to_vec();
        // A rejected admit: insert, analyze (finalize), then revert.
        view.insert_component(DemandComponent::periodic(
            Time::new(30),
            Time::new(30),
            Time::new(30),
        ));
        assert!(view.prepared().utilization_exceeds_one());
        view.revert();
        assert_eq!(view.components(), committed.as_slice());
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Reverting a mixed uncommitted batch (remove + replace + insert).
        view.remove_component(admitted);
        view.replace_component(
            1,
            DemandComponent::one_shot(Time::new(2), Time::new(6), Time::new(0)),
        );
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(2),
            Time::new(3),
        ));
        view.revert();
        assert_eq!(view.components(), committed.as_slice());
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Revert with nothing pending is a no-op.
        view.revert();
        assert_eq!(view.components(), committed.as_slice());
    }

    #[test]
    fn shrinking_edits_reuse_column_capacity() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        // Grow once, then cycle admit/evict pairs: after the initial
        // growth the component column's capacity must never move again
        // (the `recycled`-style reuse contract; the pub(crate) mutators
        // debug-assert the per-edit half of this).
        for _ in 0..4 {
            view.insert_component(DemandComponent::periodic(
                Time::new(1),
                Time::new(8),
                Time::new(50),
            ));
        }
        view.prepared();
        view.commit();
        let capacity = view.scratch.component_capacity();
        let reciprocal_capacity = view.reciprocals.capacity();
        for round in 0..8 {
            let index = view.insert_component(DemandComponent::periodic(
                Time::new(1 + round % 2),
                Time::new(6),
                Time::new(20),
            ));
            view.prepared();
            view.remove_component(index);
            view.replace_component(
                0,
                DemandComponent::periodic(
                    Time::new(2),
                    Time::new(5 + round),
                    Time::new(10 + round),
                ),
            );
            view.prepared();
            view.commit();
            assert_eq!(view.scratch.component_capacity(), capacity);
            assert_eq!(view.reciprocals.capacity(), reciprocal_capacity);
        }
    }

    #[test]
    fn edit_view_over_scalar_oracle_stays_scalar() {
        let base = PreparedWorkload::new(&sample_system()).scalar_reference();
        let mut view = EditView::new(&base);
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(4),
            Time::new(9),
        ));
        assert!(view.prepared().scalar_demand);
    }

    #[test]
    fn edit_view_from_empty_base_admits() {
        let base = PreparedWorkload::from_components(Vec::new());
        let mut view = EditView::new(&base);
        assert!(view.prepared().is_empty());
        view.insert_component(DemandComponent::periodic(
            Time::new(2),
            Time::new(4),
            Time::new(8),
        ));
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        assert_eq!(view.prepared().task_count(), 1);
    }

    #[test]
    fn poisoned_view_rebuilds_from_committed_base() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        assert!(!view.is_poisoned());
        // Simulate a panic unwinding mid-edit: the component vector has
        // been mutated but the poison forbids trusting any repair of it.
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(2),
            Time::new(4),
        ));
        view.mark_poisoned();
        assert!(view.is_poisoned());
        view.rebuild_from(&base);
        assert!(!view.is_poisoned());
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        assert_eq!(view.components(), base.components());
    }

    #[test]
    #[should_panic]
    fn prepared_on_poisoned_view_panics() {
        let base = PreparedWorkload::from_components(Vec::new());
        let mut view = EditView::new(&base);
        view.mark_poisoned();
        let _ = view.prepared();
    }

    #[test]
    #[should_panic]
    fn finalized_on_dirty_view_panics() {
        let base = PreparedWorkload::from_components(Vec::new());
        let mut view = EditView::new(&base);
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(2),
            Time::new(4),
        ));
        let _ = view.finalized();
    }
}
