//! The columnar demand kernel: data-oriented storage and merge machinery
//! behind every hot demand query.
//!
//! The feasibility tests of this crate ultimately spin on three inner
//! loops — evaluating the demand bound function `dbf(I)`, finding the
//! largest job deadline below an interval (the QPA step function), and
//! merging the per-component deadline streams in ascending order.  The
//! scalar implementations of PR 1 walked the
//! [`DemandComponent`] array-of-structs with an enum match per element and
//! paid a binary-heap operation per merged job deadline.  This module
//! replaces those loops with a data-oriented kernel:
//!
//! * [`DemandKernel`] — a **structure-of-arrays** view of a prepared
//!   component list: `wcet[]`, `deadline[]` and `period[]` columns stored
//!   in ascending first-deadline order (the ordering
//!   [`PreparedWorkload::deadline_order`](crate::workload::PreparedWorkload::deadline_order)
//!   already caches), with one-shot components segregated from periodic
//!   ones.  The one-shot contribution to `dbf(t)` collapses to a binary
//!   search plus a precomputed (saturating) prefix sum of costs; the
//!   periodic contribution is a tight loop over contiguous columns with no
//!   per-element enum branch — the deadline cutoff is found by **one**
//!   binary search and the loop body is pure arithmetic.  The layout is
//!   valid for every WCET perturbation because deadlines, offsets and
//!   periods are *scale-invariant*: a
//!   [`ScaledView`](crate::incremental::ScaledView) probe rewrites the
//!   cost column in place and nothing else moves (the same property that
//!   lets the view share the base's deadline order).
//! * [`MergeState`] — a flat **loser tree** (tournament tree) over the
//!   per-component deadline streams, replacing the former
//!   `BinaryHeap`-based k-way merge: advancing a stream replays one
//!   leaf-to-root path of `⌈log₂ k⌉` predictable comparisons instead of a
//!   sift with data-dependent branching, and equal-deadline runs can be
//!   drained into **one coalesced event** ([`DemandSteps`]) so the
//!   processor-demand walk performs exactly one capacity comparison per
//!   distinct interval without a peek-and-fold loop.
//! * [`AnalysisScratch`] — a reusable arena holding the merge state and
//!   every transient buffer the seven feasibility tests need (pending
//!   interval heaps, refinement states, approximation terms).  One scratch
//!   per batch worker makes high-throughput
//!   [`batch::analyze_many`](crate::batch::analyze_many) perform no
//!   per-workload transient allocations after warm-up.
//!
//! Every query runs the `u64` columns, dividing by each period through
//! the column's cached [`Reciprocal`](crate::arith) (two widening
//! multiplies instead of a hardware division).
//!
//! The scalar array-of-structs path is retained **only** as an oracle:
//! [`PreparedWorkload::scalar_reference`](crate::workload::PreparedWorkload::scalar_reference)
//! answers every demand query through the original folds, and
//! [`reference::demand_events`] keeps the heap merge, so the
//! `kernel_equivalence` property tests can assert the kernel bit-identical
//! (verdicts, iteration counts, overload witnesses) to the code it
//! replaced.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::workload::{PreparedWorkload, Workload};
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(1), Time::new(4), Time::new(8))?,
//!     Task::new(Time::new(2), Time::new(6), Time::new(12))?,
//! ]);
//! let prepared = PreparedWorkload::new(&ts);
//! // `PreparedWorkload::dbf` answers through the columnar kernel; the
//! // retained scalar oracle must agree bit for bit.
//! let oracle = prepared.scalar_reference();
//! for i in 0..40u64 {
//!     assert_eq!(prepared.dbf(Time::new(i)), oracle.dbf(Time::new(i)));
//! }
//! # Ok(())
//! # }
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edf_model::Time;

use crate::arith::Reciprocal;
use crate::budget::WorkBudget;
use crate::superposition::ApproxTerm;
use crate::workload::DemandComponent;

/// Where a component's cost lives inside the kernel columns.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `true` → `periodic` columns, `false` → `one_shot` columns.
    periodic: bool,
    /// Index within the column family.
    index: u32,
}

/// The columnar (structure-of-arrays) form of a prepared component list.
///
/// Built once per [`PreparedWorkload`](crate::workload::PreparedWorkload)
/// (lazily, on the first demand query) from the cached ascending-deadline
/// order; see the [module documentation](self) for the layout and why it
/// is invariant under WCET changes.
#[derive(Debug, Clone, Default)]
pub struct DemandKernel {
    /// Periodic columns, ascending first deadline (ties keep component
    /// order — the deadline sort is stable).
    p_deadline: Vec<u64>,
    p_period: Vec<u64>,
    p_wcet: Vec<u64>,
    /// Per-column period reciprocals (see [`crate::arith`]'s `Reciprocal`).
    p_rcp: Vec<Reciprocal>,
    /// One-shot columns, ascending deadline.
    o_deadline: Vec<u64>,
    o_wcet: Vec<u64>,
    /// Saturating prefix sums of `o_wcet` (`prefix[i] = min(Σ₀..=i, MAX)`).
    o_prefix: Vec<u64>,
    /// Component index → column slot (the write path of
    /// [`ScaledView`](crate::incremental::ScaledView) probes).
    slot_of: Vec<Slot>,
    /// Set when a one-shot cost was rewritten; the prefix sums are
    /// refreshed by [`DemandKernel::refresh_after_rewrite`] before the
    /// next query.
    prefix_dirty: bool,
}

impl DemandKernel {
    /// (Re)builds the columns from `components`, walking `deadline_order`
    /// (the indices sorted by ascending first deadline).  All column
    /// allocations are reused.
    pub(crate) fn rebuild(&mut self, components: &[DemandComponent], deadline_order: &[usize]) {
        self.rebuild_impl(components, deadline_order, None);
    }

    /// [`DemandKernel::rebuild`] with the per-component period reciprocals
    /// supplied by the caller (`reciprocals[i]` belongs to component `i`;
    /// one-shot entries are ignored) — the candidate-swap path, where the
    /// periods are invariant across arbitrarily many rebuilds and
    /// re-deriving each [`Reciprocal`] (a 128-bit division) per rebuild
    /// would dominate the repair cost.
    pub(crate) fn rebuild_with_reciprocals(
        &mut self,
        components: &[DemandComponent],
        deadline_order: &[usize],
        reciprocals: &[Reciprocal],
    ) {
        self.rebuild_impl(components, deadline_order, Some(reciprocals));
    }

    fn rebuild_impl(
        &mut self,
        components: &[DemandComponent],
        deadline_order: &[usize],
        reciprocals: Option<&[Reciprocal]>,
    ) {
        debug_assert_eq!(components.len(), deadline_order.len());
        self.p_deadline.clear();
        self.p_period.clear();
        self.p_wcet.clear();
        self.p_rcp.clear();
        self.o_deadline.clear();
        self.o_wcet.clear();
        self.slot_of.clear();
        self.slot_of.resize(components.len(), Slot::default());
        for &idx in deadline_order {
            let component = &components[idx];
            match component.period() {
                Some(period) => {
                    self.slot_of[idx] = Slot {
                        periodic: true,
                        index: self.p_deadline.len() as u32,
                    };
                    self.p_deadline.push(component.first_deadline().as_u64());
                    self.p_period.push(period.as_u64());
                    let rcp = match reciprocals {
                        Some(cache) => {
                            debug_assert_eq!(cache[idx], Reciprocal::new(period.as_u64()));
                            cache[idx]
                        }
                        None => Reciprocal::new(period.as_u64()),
                    };
                    self.p_rcp.push(rcp);
                    self.p_wcet.push(component.wcet().as_u64());
                }
                None => {
                    self.slot_of[idx] = Slot {
                        periodic: false,
                        index: self.o_deadline.len() as u32,
                    };
                    self.o_deadline.push(component.first_deadline().as_u64());
                    self.o_wcet.push(component.wcet().as_u64());
                }
            }
        }
        self.rebuild_prefix();
    }

    /// Recomputes the one-shot prefix sums (saturating, so the clamp
    /// semantics of the scalar fold are preserved exactly).
    fn rebuild_prefix(&mut self) {
        self.o_prefix.clear();
        let mut acc: u64 = 0;
        for &wcet in &self.o_wcet {
            acc = acc.saturating_add(wcet);
            self.o_prefix.push(acc);
        }
        self.prefix_dirty = false;
    }

    /// Rewrites the cost of `component` — a plain column write; deadlines,
    /// periods and the sort order never move under WCET changes.
    pub(crate) fn set_wcet(&mut self, component: usize, wcet: Time) {
        let slot = self.slot_of[component];
        if slot.periodic {
            self.p_wcet[slot.index as usize] = wcet.as_u64();
        } else {
            self.o_wcet[slot.index as usize] = wcet.as_u64();
            self.prefix_dirty = true;
        }
    }

    /// Refreshes derived column state after a batch of
    /// [`DemandKernel::set_wcet`] writes (called by
    /// [`PreparedWorkload::install_refreshed_state`](crate::workload::PreparedWorkload)
    /// at the end of every [`ScaledView`](crate::incremental::ScaledView)
    /// probe): the one-shot prefix sums.
    pub(crate) fn refresh_after_rewrite(&mut self) {
        if self.prefix_dirty {
            self.rebuild_prefix();
        }
    }

    /// The one-shot contribution to `dbf(t)`: a binary search into the
    /// sorted one-shot deadlines plus one prefix-sum lookup.
    #[inline]
    fn one_shot_demand(&self, t: u64) -> u64 {
        debug_assert!(!self.prefix_dirty, "query on a stale one-shot prefix");
        match self.o_deadline.partition_point(|&d| d <= t) {
            0 => 0,
            hit => self.o_prefix[hit - 1],
        }
    }

    /// Total demand bound function, bit-identical to the scalar
    /// saturating fold over [`DemandComponent::dbf`]: one binary search
    /// for the deadline cutoff, then a tight loop over the columns.
    #[must_use]
    pub fn dbf(&self, interval: Time) -> Time {
        let t = interval.as_u64();
        let cut = self.p_deadline.partition_point(|&d| d <= t);
        let mut total = self.one_shot_demand(t);
        for ((&deadline, &rcp), &wcet) in self.p_deadline[..cut]
            .iter()
            .zip(&self.p_rcp[..cut])
            .zip(&self.p_wcet[..cut])
        {
            let jobs = rcp.divide(t - deadline).saturating_add(1);
            total = total.saturating_add(wcet.saturating_mul(jobs));
        }
        Time::new(total)
    }

    /// The largest job deadline strictly below `limit`, answered from the
    /// sorted columns instead of a full component scan: the one-shot part
    /// is one binary search; the periodic part visits only the prefix of
    /// components whose first deadline is below `limit`.
    #[must_use]
    pub fn last_deadline_below(&self, limit: Time) -> Option<Time> {
        let limit = limit.as_u64();
        let mut best: Option<u64> = None;
        let o_cut = self.o_deadline.partition_point(|&d| d < limit);
        if o_cut > 0 {
            best = Some(self.o_deadline[o_cut - 1]);
        }
        let p_cut = self.p_deadline.partition_point(|&d| d < limit);
        if p_cut > 0 {
            let mut periodic_best = 0u64;
            for ((&deadline, &period), &rcp) in self.p_deadline[..p_cut]
                .iter()
                .zip(&self.p_period[..p_cut])
                .zip(&self.p_rcp[..p_cut])
            {
                // No overflow: k·period ≤ limit − 1 − deadline by
                // construction, matching the checked scalar path exactly.
                let k = rcp.divide(limit - 1 - deadline);
                periodic_best = periodic_best.max(deadline + k * period);
            }
            best = Some(best.map_or(periodic_best, |b| b.max(periodic_best)));
        }
        best.map(Time::new)
    }

    /// The combined QPA step query: `dbf(interval)` **and** the largest
    /// job deadline strictly below `interval`, computed in one pass over
    /// the columns (the quantities share their deadline cutoffs and column
    /// loads, so fusing them halves the per-step work of the QPA loop).
    #[must_use]
    pub fn demand_and_predecessor(&self, interval: Time) -> (Time, Option<Time>) {
        let t = interval.as_u64();
        let mut total = self.one_shot_demand(t);
        let mut best: Option<u64> = None;
        let o_cut = self.o_deadline.partition_point(|&d| d < t);
        if o_cut > 0 {
            best = Some(self.o_deadline[o_cut - 1]);
        }
        let p_le = self.p_deadline.partition_point(|&d| d <= t);
        let p_lt = self.p_deadline[..p_le].partition_point(|&d| d < t);
        if p_lt > 0 {
            let mut periodic_best = 0u64;
            for (((&deadline, &period), &rcp), &wcet) in self.p_deadline[..p_lt]
                .iter()
                .zip(&self.p_period[..p_lt])
                .zip(&self.p_rcp[..p_lt])
                .zip(&self.p_wcet[..p_lt])
            {
                let delta = t - deadline;
                let q = rcp.divide(delta);
                let r = delta - q * period;
                total = total.saturating_add(wcet.saturating_mul(q.saturating_add(1)));
                // Last deadline < t: the q-th if t is not itself one of
                // this component's deadlines, the (q−1)-th otherwise
                // (q ≥ 1 there, since deadline < t).
                let steps = if r == 0 { q - 1 } else { q };
                periodic_best = periodic_best.max(deadline + steps * period);
            }
            best = Some(best.map_or(periodic_best, |b| b.max(periodic_best)));
        }
        // Components whose first deadline equals t contribute exactly one
        // job to the demand and nothing to the predecessor.
        for &wcet in &self.p_wcet[p_lt..p_le] {
            total = total.saturating_add(wcet);
        }
        (Time::new(total), best.map(Time::new))
    }

    /// The demand contribution of one component at `interval`, gathered
    /// straight from its column slot — bit-identical to
    /// [`DemandComponent::dbf`] on the corresponding component, with the
    /// period reciprocal replacing the hardware division.  This is the
    /// kernel-side form of the refining tests' withdrawal evaluations.
    #[must_use]
    pub(crate) fn component_demand(&self, component: usize, interval: Time) -> Time {
        let t = interval.as_u64();
        let slot = self.slot_of[component];
        let index = slot.index as usize;
        if slot.periodic {
            let deadline = self.p_deadline[index];
            if deadline > t {
                return Time::ZERO;
            }
            let jobs = self.p_rcp[index].divide(t - deadline).saturating_add(1);
            Time::new(self.p_wcet[index].saturating_mul(jobs))
        } else if self.o_deadline[index] > t {
            Time::ZERO
        } else {
            Time::new(self.o_wcet[index])
        }
    }

    /// The cached period reciprocal of a periodic component, gathered from
    /// its column slot (`None` for one-shot components).  The refining
    /// tests pull these once per analysis so every deadline step and
    /// withdrawal evaluation divides by the period through two widening
    /// multiplies instead of a hardware division (see [`crate::refine`]).
    #[must_use]
    pub(crate) fn period_reciprocal(&self, component: usize) -> Option<Reciprocal> {
        let slot = self.slot_of[component];
        slot.periodic.then(|| self.p_rcp[slot.index as usize])
    }

    /// Number of periodic columns (for the benchmarks and tests).
    #[must_use]
    pub fn periodic_len(&self) -> usize {
        self.p_deadline.len()
    }

    /// Number of one-shot columns (for the benchmarks and tests).
    #[must_use]
    pub fn one_shot_len(&self) -> usize {
        self.o_deadline.len()
    }
}

/// Encodes a stream's current deadline and its component index into one
/// totally ordered key: `(deadline, component)` lexicographically, which
/// reproduces the pop order of the former `BinaryHeap<Reverse<(Time,
/// usize)>>` exactly.  `u128::MAX` is the exhausted sentinel (strictly
/// larger than every real key, whose top 32 bits are zero).
#[inline]
fn merge_key(deadline: u64, component: u32) -> u128 {
    (u128::from(deadline) << 32) | u128::from(component)
}

const EXHAUSTED: u128 = u128::MAX;

/// The flat loser-tree merge of all component deadline streams — the
/// reusable engine behind
/// [`PreparedWorkload::demand_events`](crate::workload::PreparedWorkload::demand_events)
/// and [`DemandSteps`].
///
/// The tree is a plain `Vec` of stream ids: entry 0 is the current winner,
/// entries `1..k` hold the losers of the internal tournament nodes.
/// Popping the winner advances its stream and replays a single
/// leaf-to-root path.  All buffers are reused across re-initializations,
/// so a batch worker merges arbitrarily many workloads without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct MergeState {
    /// Current key per stream ([`merge_key`], or [`EXHAUSTED`]).
    key: Vec<u128>,
    /// Deadline increment per stream; 0 marks a one-shot stream.
    period: Vec<u64>,
    /// Cost per job of the stream (for coalesced demand steps).
    wcet: Vec<u64>,
    /// Loser tree over the streams (see the type docs).
    tree: Vec<u32>,
    horizon: u64,
}

impl MergeState {
    /// Prepares the merge over all component deadline streams `≤ horizon`.
    pub(crate) fn init(&mut self, components: &[DemandComponent], horizon: Time) {
        self.key.clear();
        self.period.clear();
        self.wcet.clear();
        self.horizon = horizon.as_u64();
        for (idx, component) in components.iter().enumerate() {
            if component.first_deadline() <= horizon {
                self.key
                    .push(merge_key(component.first_deadline().as_u64(), idx as u32));
                self.period.push(component.period().map_or(0, Time::as_u64));
                self.wcet.push(component.wcet().as_u64());
            }
        }
        self.rebuild_tree();
    }

    /// Rebuilds the tournament from scratch (`O(k)`).
    fn rebuild_tree(&mut self) {
        let k = self.key.len();
        self.tree.clear();
        self.tree.resize(k.max(1), 0);
        if k == 0 {
            return;
        }
        let winner = self.play(1);
        self.tree[0] = winner;
    }

    /// Plays the tournament rooted at internal node `node` (leaves are the
    /// virtual nodes `k..2k`), recording losers and returning the winner.
    fn play(&mut self, node: usize) -> u32 {
        let k = self.key.len();
        if node >= k {
            return (node - k) as u32;
        }
        let left = self.play(2 * node);
        let right = self.play(2 * node + 1);
        let (winner, loser) = if self.key[left as usize] <= self.key[right as usize] {
            (left, right)
        } else {
            (right, left)
        };
        self.tree[node] = loser;
        winner
    }

    /// The deadline of the next event, if any.
    #[inline]
    fn peek_deadline(&self) -> Option<u64> {
        if self.key.is_empty() {
            return None;
        }
        let key = self.key[self.tree[0] as usize];
        (key != EXHAUSTED).then_some((key >> 32) as u64)
    }

    /// Pops the next `(deadline, component, wcet)` event in ascending
    /// `(deadline, component)` order.
    #[inline]
    fn pop(&mut self) -> Option<(u64, u32, u64)> {
        if self.key.is_empty() {
            return None;
        }
        let stream = self.tree[0] as usize;
        let key = self.key[stream];
        if key == EXHAUSTED {
            return None;
        }
        let deadline = (key >> 32) as u64;
        let component = (key & u128::from(u32::MAX)) as u32;
        // Advance the stream.
        self.key[stream] = match self.period[stream] {
            0 => EXHAUSTED,
            period => match deadline.checked_add(period) {
                Some(next) if next <= self.horizon => merge_key(next, component),
                _ => EXHAUSTED,
            },
        };
        // Replay the leaf-to-root path (winner key kept in a register).
        let k = self.key.len();
        let mut winner = stream as u32;
        let mut winner_key = self.key[stream];
        let mut node = (stream + k) / 2;
        while node >= 1 {
            let challenger = self.tree[node];
            let challenger_key = self.key[challenger as usize];
            if challenger_key < winner_key {
                self.tree[node] = winner;
                winner = challenger;
                winner_key = challenger_key;
            }
            node /= 2;
        }
        self.tree[0] = winner;
        Some((deadline, component, self.wcet[stream]))
    }
}

/// A flat winner (tournament) tree over **one pending test interval per
/// component** — the refining tests' replacement for their former
/// `BinaryHeap<Reverse<(Time, usize)>>` pending queue (see
/// [`crate::refine`]).
///
/// The refining tests maintain the invariant that a component has at most
/// one outstanding exact test interval (its next unexamined deadline), so
/// the queue is a fixed frontier of `n` slots keyed by [`merge_key`]
/// (`(deadline, component)` lexicographically — the exact pop order of the
/// heap it replaces; keys are unique because the component index is part
/// of the key).  Empty slots hold the [`EXHAUSTED`] sentinel.
///
/// Unlike [`MergeState`]'s loser tree — whose single-path replay is only
/// valid when the *winning* leaf advances — this tree stores the **winning
/// leaf of every subtree** in its internal nodes, so an arbitrary slot
/// update (a withdrawal re-entering a component mid-frontier) replays one
/// leaf-to-root path of `⌈log₂ n⌉` two-child comparisons and stays
/// correct.  Both pop and push are a slot write plus one such replay; no
/// sift with data-dependent branching, no per-pop allocation.
///
/// Layout: `k = n` leaves are the virtual nodes `k..2k` (leaf `j` is node
/// `k + j`), internal nodes `1..k` hold the winning slot index of their
/// subtree, and the overall winner is the winner of node 1 (for `k = 1`
/// node 1 *is* the single leaf).
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontierQueue {
    /// Current key per component slot ([`merge_key`], or [`EXHAUSTED`]).
    key: Vec<u128>,
    /// `tree[node]` = slot index winning the subtree rooted at `node`.
    tree: Vec<u32>,
}

impl FrontierQueue {
    /// Clears the queue to `n` exhausted slots.  Callers [`seed`] the
    /// initial frontier and then [`rebuild`] once — `O(n)` total, versus
    /// `O(n log n)` for heapifying by repeated pushes.
    ///
    /// [`seed`]: FrontierQueue::seed
    /// [`rebuild`]: FrontierQueue::rebuild
    pub(crate) fn reset(&mut self, n: usize) {
        self.key.clear();
        self.key.resize(n, EXHAUSTED);
    }

    /// Sets slot `component`'s pending interval without replaying the
    /// tree; call [`FrontierQueue::rebuild`] once after seeding.
    pub(crate) fn seed(&mut self, component: usize, deadline: Time) {
        self.key[component] = merge_key(deadline.as_u64(), component as u32);
    }

    /// Rebuilds the whole tournament in `O(n)` (children before parents).
    pub(crate) fn rebuild(&mut self) {
        let k = self.key.len();
        self.tree.clear();
        self.tree.resize(k.max(1), 0);
        for node in (1..k).rev() {
            self.tree[node] = self.winner_of(node);
        }
    }

    /// The winning slot of the subtree rooted at `node`, reading its two
    /// children (which must already be up to date).
    #[inline]
    fn winner_of(&self, node: usize) -> u32 {
        let left = self.child_winner(2 * node);
        let right = self.child_winner(2 * node + 1);
        if self.key[left as usize] <= self.key[right as usize] {
            left
        } else {
            right
        }
    }

    /// The winning slot stored at `node`, resolving virtual leaf nodes.
    #[inline]
    fn child_winner(&self, node: usize) -> u32 {
        let k = self.key.len();
        if node >= k {
            (node - k) as u32
        } else {
            self.tree[node]
        }
    }

    /// Replays the leaf-to-root path of slot `component` after its key
    /// changed (in either direction — the two-child recomputation per
    /// level is what makes arbitrary-slot updates sound).
    #[inline]
    fn replay(&mut self, component: usize) {
        let k = self.key.len();
        let mut node = (component + k) / 2;
        while node >= 1 {
            self.tree[node] = self.winner_of(node);
            node /= 2;
        }
    }

    /// Pops the minimum `(interval, component)` entry, or `None` when
    /// every slot is exhausted — the exact pop order of the
    /// `BinaryHeap<Reverse<(Time, usize)>>` it replaces.
    pub(crate) fn pop(&mut self) -> Option<(Time, usize)> {
        if self.key.is_empty() {
            return None;
        }
        let slot = self.child_winner(1) as usize;
        let key = self.key[slot];
        if key == EXHAUSTED {
            return None;
        }
        self.key[slot] = EXHAUSTED;
        self.replay(slot);
        Some((Time::new((key >> 32) as u64), slot))
    }

    /// Schedules `deadline` as slot `component`'s pending interval.  The
    /// slot must currently be empty (the refining tests' one-outstanding-
    /// interval-per-component invariant).
    pub(crate) fn push(&mut self, component: usize, deadline: Time) {
        debug_assert_eq!(
            self.key[component], EXHAUSTED,
            "component {component} already has a pending interval"
        );
        self.key[component] = merge_key(deadline.as_u64(), component as u32);
        self.replay(component);
    }
}

/// One merged per-job demand event (re-exported through
/// [`crate::workload::DemandEvent`]'s iterator); crate-internal plumbing
/// between [`MergeState`] and the public iterators.
pub(crate) fn merge_pop(state: &mut MergeState) -> Option<(Time, usize)> {
    state
        .pop()
        .map(|(deadline, component, _)| (Time::new(deadline), component as usize))
}

/// Coalesced demand steps: one `(interval, demand increment)` pair per
/// **distinct** job deadline `≤ horizon`, in ascending order, with
/// equal-deadline runs pre-summed (saturating).  This is what lets the
/// processor-demand walk perform exactly one comparison per interval with
/// no peek-and-fold loop.
///
/// Construct via
/// [`PreparedWorkload::demand_steps`](crate::workload::PreparedWorkload);
/// the scalar-oracle variant reproduces the former heap walk.
#[derive(Debug)]
pub struct DemandSteps<'a> {
    inner: StepsInner<'a>,
}

#[derive(Debug)]
enum StepsInner<'a> {
    /// The kernel path: a borrowed, reusable loser tree.
    Tree(&'a mut MergeState),
    /// The retained scalar oracle: the former binary-heap walk.
    Scalar {
        components: &'a [DemandComponent],
        heap: BinaryHeap<Reverse<(Time, usize)>>,
        horizon: Time,
    },
}

impl<'a> DemandSteps<'a> {
    pub(crate) fn from_tree(merge: &'a mut MergeState) -> Self {
        DemandSteps {
            inner: StepsInner::Tree(merge),
        }
    }

    pub(crate) fn scalar(components: &'a [DemandComponent], horizon: Time) -> Self {
        let mut heap = BinaryHeap::with_capacity(components.len());
        for (idx, component) in components.iter().enumerate() {
            if component.first_deadline() <= horizon {
                heap.push(Reverse((component.first_deadline(), idx)));
            }
        }
        DemandSteps {
            inner: StepsInner::Scalar {
                components,
                heap,
                horizon,
            },
        }
    }
}

impl Iterator for DemandSteps<'_> {
    /// `(interval, total cost of the jobs due exactly at it)`.
    type Item = (Time, Time);

    fn next(&mut self) -> Option<(Time, Time)> {
        match &mut self.inner {
            StepsInner::Tree(merge) => {
                let (deadline, _, wcet) = merge.pop()?;
                let mut demand = Time::new(wcet);
                while merge.peek_deadline() == Some(deadline) {
                    let (_, _, extra) = merge.pop().expect("peeked event exists");
                    demand = demand.saturating_add(Time::new(extra));
                }
                Some((Time::new(deadline), demand))
            }
            StepsInner::Scalar {
                components,
                heap,
                horizon,
            } => {
                let advance =
                    |heap: &mut BinaryHeap<Reverse<(Time, usize)>>, deadline: Time, idx: usize| {
                        if let Some(period) = components[idx].period() {
                            if let Some(next) = deadline.checked_add(period) {
                                if next <= *horizon {
                                    heap.push(Reverse((next, idx)));
                                }
                            }
                        }
                    };
                let Reverse((interval, idx)) = heap.pop()?;
                advance(heap, interval, idx);
                let mut demand = components[idx].wcet();
                while matches!(heap.peek(), Some(Reverse((next, _))) if *next == interval) {
                    let Reverse((_, extra)) = heap.pop().expect("peeked event exists");
                    advance(heap, interval, extra);
                    demand = demand.saturating_add(components[extra].wcet());
                }
                Some((interval, demand))
            }
        }
    }
}

/// Shared per-component bookkeeping of the refining tests
/// (dynamic-error and all-approximated), pooled in [`AnalysisScratch`] so
/// batch workers reuse one state vector across workloads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefinementState {
    /// Exact demand of the deadlines of this component examined so far.
    pub examined_demand: Time,
    /// Number of jobs examined exactly (the all-approximated level limit).
    pub examined_jobs: u64,
    /// `Some(im)` when the component is approximated from `im` on.
    pub approximated_from: Option<Time>,
    /// Creation sequence number of the approximation (FIFO revision).
    pub approx_seq: u64,
    /// Position of this component's term inside the incrementally
    /// maintained approximation-term list (valid while approximated).
    pub term_slot: u32,
}

/// Reusable scratch space for one analysis worker: the loser-tree merge
/// and every transient buffer the feasibility tests need.
///
/// Creating a scratch is free (no allocation until first use); reusing one
/// across many analyses — as
/// [`batch::analyze_many`](crate::batch::analyze_many) does with one
/// scratch per worker thread — eliminates all per-workload transient
/// allocations from the test loops.  Pass it to
/// [`FeasibilityTest::analyze_prepared_with`](crate::FeasibilityTest::analyze_prepared_with);
/// the plain `analyze_prepared` entry point simply runs with a fresh
/// scratch.
///
/// # Examples
///
/// ```
/// use edf_analysis::kernel::AnalysisScratch;
/// use edf_analysis::tests::QpaTest;
/// use edf_analysis::workload::PreparedWorkload;
/// use edf_analysis::FeasibilityTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![Task::new(Time::new(1), Time::new(4), Time::new(8))?]);
/// let prepared = PreparedWorkload::new(&ts);
/// let mut scratch = AnalysisScratch::new();
/// let with_scratch = QpaTest::new().analyze_prepared_with(&prepared, &mut scratch);
/// assert_eq!(with_scratch, QpaTest::new().analyze_prepared(&prepared));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// The loser-tree merge (processor-demand walk).
    pub(crate) merge: MergeState,
    /// Pending exact test intervals of the retained refining-test
    /// reference bookkeeping ([`crate::refine::reference`]).
    pub(crate) pending: BinaryHeap<Reverse<(Time, usize)>>,
    /// The refining tests' flat frontier of pending exact test intervals
    /// (one slot per component; see [`FrontierQueue`] and
    /// [`crate::refine`]).
    pub(crate) frontier: FrontierQueue,
    /// Per-component period reciprocals of the refining tests, gathered
    /// once per analysis from the kernel columns (`None` for one-shots).
    pub(crate) refine_rcp: Vec<Option<Reciprocal>>,
    /// Per-component refinement states of the refining tests.
    pub(crate) refine: Vec<RefinementState>,
    /// Approximated demand terms — maintained incrementally by the
    /// refining tests (one push per approximation, one swap-remove per
    /// withdrawal) instead of being rebuilt every comparison.
    pub(crate) approx_terms: Vec<ApproxTerm>,
    /// Component index owning each entry of `approx_terms` (keeps
    /// [`RefinementState::term_slot`] consistent across swap-removes).
    pub(crate) term_owner: Vec<u32>,
    /// Per-component approximation-term prototypes of the superposition
    /// test (`None` for one-shot components), built once per analysis.
    pub(crate) term_cache: Vec<Option<ApproxTerm>>,
    /// Indices of the components a refining test withdraws in one
    /// level-raise pass — collected first, then evaluated as one batch of
    /// kernel column gathers ([`DemandKernel`]'s `component_demand`).
    pub(crate) withdrawn: Vec<u32>,
    /// Devi's per-prefix rational terms.
    pub(crate) devi_terms: Vec<(u128, u128)>,
    /// The superposition test's `(deadline, component, job)` interval heap.
    pub(crate) level_heap: BinaryHeap<Reverse<(Time, usize, u64)>>,
    /// The deterministic work budget the next analysis runs under
    /// (unlimited by default; see [`crate::budget`]).
    pub(crate) budget: WorkBudget,
}

impl AnalysisScratch {
    /// Creates an empty scratch (allocation-free; buffers grow on first
    /// use and are then reused) with an unlimited work budget.
    #[must_use]
    pub fn new() -> Self {
        AnalysisScratch::default()
    }

    /// Installs the [`WorkBudget`] the next budget-aware analysis runs
    /// under.
    ///
    /// The budget is the one piece of scratch state that **is** an input:
    /// a limited budget can turn a decisive verdict into an honest
    /// [`Unknown`](crate::Verdict::Unknown) carrying a
    /// [`Progress`](crate::budget::Progress) record.  It persists across
    /// analyses (spent units accumulate) until replaced by `set_budget` or
    /// drained by [`take_budget`](AnalysisScratch::take_budget), so
    /// several runs can be metered against one allowance.  Every other
    /// scratch field remains a pure buffer with no influence on results.
    pub fn set_budget(&mut self, budget: WorkBudget) {
        self.budget = budget;
    }

    /// The current budget state (limit and spent units).
    #[must_use]
    pub fn budget(&self) -> WorkBudget {
        self.budget
    }

    /// Removes the installed budget, replacing it with
    /// [`WorkBudget::unlimited`], and returns its final state — call after
    /// a budgeted analysis to read the spend and make the scratch safe to
    /// reuse without a stale cap.
    pub fn take_budget(&mut self) -> WorkBudget {
        std::mem::take(&mut self.budget)
    }
}

pub mod reference {
    //! The retained scalar merge oracle.
    //!
    //! [`demand_events`] reproduces the pre-kernel `BinaryHeap` k-way
    //! merge (per-job events, ties in component order).  It exists so the
    //! `kernel_equivalence` property tests and the `kernel` benchmark can
    //! compare the loser tree against the exact code it replaced; use
    //! [`PreparedWorkload::demand_events`](crate::workload::PreparedWorkload::demand_events)
    //! for real work.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use edf_model::Time;

    use crate::workload::{DemandComponent, DemandEvent};

    /// The heap-based merged stream of all job deadlines `≤ horizon` in
    /// non-decreasing `(deadline, component)` order.
    #[derive(Debug)]
    pub struct ScalarDemandEvents {
        components: Vec<DemandComponent>,
        heap: BinaryHeap<Reverse<(Time, usize)>>,
        horizon: Time,
    }

    /// Creates the scalar-oracle merge over `components`.
    #[must_use]
    pub fn demand_events(components: &[DemandComponent], horizon: Time) -> ScalarDemandEvents {
        let mut heap = BinaryHeap::with_capacity(components.len());
        for (idx, component) in components.iter().enumerate() {
            if component.first_deadline() <= horizon {
                heap.push(Reverse((component.first_deadline(), idx)));
            }
        }
        ScalarDemandEvents {
            components: components.to_vec(),
            heap,
            horizon,
        }
    }

    impl Iterator for ScalarDemandEvents {
        type Item = DemandEvent;

        fn next(&mut self) -> Option<DemandEvent> {
            let Reverse((interval, component)) = self.heap.pop()?;
            if let Some(period) = self.components[component].period() {
                if let Some(next) = interval.checked_add(period) {
                    if next <= self.horizon {
                        self.heap.push(Reverse((next, component)));
                    }
                }
            }
            Some(DemandEvent {
                interval,
                component,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PreparedWorkload, Workload};
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn sample_components() -> Vec<DemandComponent> {
        vec![
            DemandComponent::periodic(Time::new(2), Time::new(20), Time::new(40)),
            DemandComponent::one_shot(Time::new(3), Time::new(7), Time::ZERO),
            DemandComponent::periodic(Time::new(1), Time::new(3), Time::new(9)),
            DemandComponent::one_shot(Time::new(1), Time::new(3), Time::ZERO),
            DemandComponent::periodic_from(Time::new(2), Time::new(4), Time::new(10), Time::new(5)),
        ]
    }

    fn kernel_of(components: &[DemandComponent]) -> DemandKernel {
        let mut order: Vec<usize> = (0..components.len()).collect();
        order.sort_by_key(|&i| components[i].first_deadline());
        let mut kernel = DemandKernel::default();
        kernel.rebuild(components, &order);
        kernel
    }

    fn scalar_dbf(components: &[DemandComponent], t: Time) -> Time {
        components
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.dbf(t)))
    }

    fn scalar_last_below(components: &[DemandComponent], limit: Time) -> Option<Time> {
        components
            .iter()
            .filter_map(|c| c.last_deadline_below(limit))
            .max()
    }

    #[test]
    fn columns_segregate_and_sort() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        assert_eq!(kernel.periodic_len(), 3);
        assert_eq!(kernel.one_shot_len(), 2);
        assert!(kernel.p_deadline.windows(2).all(|w| w[0] <= w[1]));
        assert!(kernel.o_deadline.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dbf_matches_scalar_fold_everywhere() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for i in 0..200u64 {
            let i = Time::new(i);
            assert_eq!(kernel.dbf(i), scalar_dbf(&components, i), "dbf at {i}");
        }
    }

    #[test]
    fn dbf_saturates_like_the_scalar_fold() {
        let big = 1u64 << 63;
        let huge_costs = vec![
            DemandComponent::periodic(Time::new(big), Time::ONE, Time::new(big)),
            DemandComponent::one_shot(Time::new(big), Time::ONE, Time::ZERO),
            DemandComponent::one_shot(Time::new(big), Time::ONE, Time::ZERO),
        ];
        // Period 1 from deadline 0: 2^64 jobs are due by Time::MAX.
        let huge_job_count = vec![DemandComponent::periodic(Time::ONE, Time::ZERO, Time::ONE)];
        for components in [huge_costs, huge_job_count] {
            let kernel = kernel_of(&components);
            assert_eq!(kernel.dbf(Time::MAX), Time::MAX);
            assert_eq!(kernel.dbf(Time::MAX), scalar_dbf(&components, Time::MAX));
            assert_eq!(kernel.demand_and_predecessor(Time::MAX).0, Time::MAX);
            for (idx, component) in components.iter().enumerate() {
                assert_eq!(
                    kernel.component_demand(idx, Time::MAX),
                    component.dbf(Time::MAX),
                    "component {idx}"
                );
            }
        }
    }

    #[test]
    fn last_deadline_below_matches_scalar_scan() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for limit in 0..200u64 {
            let limit = Time::new(limit);
            assert_eq!(
                kernel.last_deadline_below(limit),
                scalar_last_below(&components, limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn combined_query_agrees_with_its_parts() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for i in 0..200u64 {
            let i = Time::new(i);
            let (demand, predecessor) = kernel.demand_and_predecessor(i);
            assert_eq!(demand, kernel.dbf(i), "demand at {i}");
            assert_eq!(predecessor, kernel.last_deadline_below(i), "pred at {i}");
        }
    }

    #[test]
    fn column_rewrite_tracks_component_updates() {
        let components = sample_components();
        let mut updated = components.clone();
        let mut kernel = kernel_of(&components);
        for (idx, wcet) in [(0usize, 5u64), (1, 9), (4, 0)] {
            updated[idx].set_wcet(Time::new(wcet));
            kernel.set_wcet(idx, Time::new(wcet));
        }
        kernel.refresh_after_rewrite();
        for i in 0..200u64 {
            let i = Time::new(i);
            assert_eq!(kernel.dbf(i), scalar_dbf(&updated, i), "dbf at {i}");
        }
    }

    #[test]
    fn loser_tree_merge_equals_heap_merge() {
        let components = sample_components();
        let horizon = Time::new(150);
        let mut merge = MergeState::default();
        merge.init(&components, horizon);
        let mut tree_events = Vec::new();
        while let Some((deadline, component, _)) = merge.pop() {
            tree_events.push((Time::new(deadline), component as usize));
        }
        let heap_events: Vec<(Time, usize)> = reference::demand_events(&components, horizon)
            .map(|e| (e.interval, e.component))
            .collect();
        assert_eq!(tree_events, heap_events);
    }

    #[test]
    fn merge_state_is_reusable_across_workloads() {
        let mut merge = MergeState::default();
        for components in [
            sample_components(),
            vec![DemandComponent::periodic(
                Time::new(1),
                Time::new(5),
                Time::new(5),
            )],
            Vec::new(),
        ] {
            let horizon = Time::new(60);
            merge.init(&components, horizon);
            let mut got = Vec::new();
            while let Some((deadline, component, _)) = merge.pop() {
                got.push((Time::new(deadline), component as usize));
            }
            let expected: Vec<(Time, usize)> = reference::demand_events(&components, horizon)
                .map(|e| (e.interval, e.component))
                .collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn coalesced_steps_sum_equal_deadlines() {
        let ts = TaskSet::from_tasks(vec![t(1, 10, 10), t(2, 10, 10), t(3, 5, 20)]);
        let components = ts.demand_components();
        let mut merge = MergeState::default();
        merge.init(&components, Time::new(30));
        let steps: Vec<(Time, Time)> = DemandSteps::from_tree(&mut merge).collect();
        assert_eq!(
            steps,
            vec![
                (Time::new(5), Time::new(3)),
                (Time::new(10), Time::new(3)),
                (Time::new(20), Time::new(3)),
                (Time::new(25), Time::new(3)),
                (Time::new(30), Time::new(3)),
            ]
        );
        // The scalar-oracle steps agree.
        let scalar: Vec<(Time, Time)> = DemandSteps::scalar(&components, Time::new(30)).collect();
        assert_eq!(steps, scalar);
    }

    #[test]
    fn empty_and_single_stream_merges() {
        let mut merge = MergeState::default();
        merge.init(&[], Time::new(100));
        assert_eq!(merge.pop(), None);
        let single = vec![DemandComponent::periodic(
            Time::new(1),
            Time::new(4),
            Time::new(10),
        )];
        merge.init(&single, Time::new(25));
        let mut got = Vec::new();
        while let Some((d, c, _)) = merge.pop() {
            got.push((d, c));
        }
        assert_eq!(got, vec![(4, 0), (14, 0), (24, 0)]);
        // Beyond-horizon first deadlines never enter the merge.
        merge.init(&single, Time::new(3));
        assert_eq!(merge.pop(), None);
    }

    #[test]
    fn prepared_workload_kernel_accessor() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12)]);
        let prepared = PreparedWorkload::new(&ts);
        assert_eq!(prepared.kernel().periodic_len(), 2);
        assert_eq!(prepared.kernel().one_shot_len(), 0);
    }

    const ABOVE_32: u64 = u32::MAX as u64 + 5;

    /// Small columns (every value fits `u32`) probed at intervals at and
    /// beyond `u32::MAX` match the scalar folds.
    #[test]
    fn narrow_columns_with_wide_intervals_match_scalar_folds() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for &i in &[u32::MAX as u64, ABOVE_32, ABOVE_32 + 13] {
            let i = Time::new(i);
            assert_eq!(kernel.dbf(i), scalar_dbf(&components, i), "dbf at {i}");
            assert_eq!(
                kernel.last_deadline_below(i),
                scalar_last_below(&components, i),
                "predecessor at {i}"
            );
        }
    }

    /// Columns straddling `u32::MAX`, and small columns probed at huge
    /// intervals, still match the scalar folds on both sides of it.
    #[test]
    fn straddling_columns_match_scalar_folds() {
        let straddling = vec![
            DemandComponent::periodic(Time::new(2), Time::new(20), Time::new(40)),
            DemandComponent::periodic(Time::new(3), Time::new(ABOVE_32), Time::new(ABOVE_32 + 7)),
            DemandComponent::periodic(Time::new(ABOVE_32), Time::new(9), Time::new(ABOVE_32 * 2)),
            DemandComponent::one_shot(Time::new(5), Time::new(ABOVE_32 + 1), Time::ZERO),
        ];
        let probes = [
            0,
            19,
            20,
            u32::MAX as u64,
            ABOVE_32,
            ABOVE_32 + 1,
            ABOVE_32 + 13,
            ABOVE_32 * 3 + 11,
        ];
        for components in [straddling, sample_components()] {
            let kernel = kernel_of(&components);
            for &i in &probes {
                let i = Time::new(i);
                assert_eq!(kernel.dbf(i), scalar_dbf(&components, i), "dbf at {i}");
                assert_eq!(
                    kernel.last_deadline_below(i),
                    scalar_last_below(&components, i),
                    "predecessor at {i}"
                );
                let (demand, predecessor) = kernel.demand_and_predecessor(i);
                assert_eq!(demand, kernel.dbf(i));
                assert_eq!(predecessor, kernel.last_deadline_below(i));
            }
        }
    }

    /// A cost rewritten above `u32::MAX` and back again is tracked by
    /// every query, with and without the post-rewrite refresh.
    #[test]
    fn wcet_rewrites_track_scalar_folds() {
        let components = sample_components();
        let mut updated = components.clone();
        let mut kernel = kernel_of(&components);
        updated[0].set_wcet(Time::new(ABOVE_32));
        kernel.set_wcet(0, Time::new(ABOVE_32));
        for i in (0..100).chain([ABOVE_32 - 1, ABOVE_32 + 50]) {
            let i = Time::new(i);
            assert_eq!(
                kernel.dbf(i),
                scalar_dbf(&updated, i),
                "wide-cost dbf at {i}"
            );
        }
        kernel.refresh_after_rewrite();
        updated[0].set_wcet(Time::new(7));
        kernel.set_wcet(0, Time::new(7));
        kernel.refresh_after_rewrite();
        for i in 0..100 {
            let i = Time::new(i);
            assert_eq!(
                kernel.dbf(i),
                scalar_dbf(&updated, i),
                "restored-cost dbf at {i}"
            );
        }
    }

    #[test]
    fn component_demand_gathers_match_component_dbf() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for (idx, component) in components.iter().enumerate() {
            for i in 0..120u64 {
                let i = Time::new(i);
                assert_eq!(
                    kernel.component_demand(idx, i),
                    component.dbf(i),
                    "component {idx} at {i}"
                );
            }
        }
    }

    #[test]
    fn period_reciprocal_exists_exactly_for_periodic_components() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for (idx, component) in components.iter().enumerate() {
            let rcp = kernel.period_reciprocal(idx);
            match component.period() {
                Some(period) => {
                    assert_eq!(
                        rcp,
                        Some(Reciprocal::new(period.as_u64())),
                        "component {idx}"
                    );
                }
                None => assert_eq!(rcp, None, "component {idx}"),
            }
        }
    }

    /// Drives a [`FrontierQueue`] and a `BinaryHeap<Reverse<(Time, usize)>>`
    /// through the same deterministic seed / pop / re-push schedule and
    /// asserts identical pop order. The refining tests keep at most one
    /// pending interval per component, which both structures model here.
    fn assert_frontier_matches_heap(n: usize, seeds: &[(usize, u64)], steps: u32) {
        let mut frontier = FrontierQueue::default();
        frontier.reset(n);
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
        for &(component, deadline) in seeds {
            frontier.seed(component, Time::new(deadline));
            heap.push(Reverse((Time::new(deadline), component)));
        }
        frontier.rebuild();
        let mut tick = 0u64;
        for step in 0..steps {
            let expected = heap.pop().map(|Reverse(pair)| pair);
            let got = frontier.pop();
            assert_eq!(got, expected, "step {step} of n={n}");
            let Some((deadline, component)) = got else {
                break;
            };
            // A deterministic mix of "advance this component" and "let it
            // drop out, then re-enter later" keeps arbitrary slots cycling
            // between live and exhausted.
            tick += 1;
            if !tick.is_multiple_of(3) {
                let next = deadline.saturating_add(Time::new(1 + (tick % 7)));
                frontier.push(component, next);
                heap.push(Reverse((next, component)));
            } else if tick.is_multiple_of(6) {
                let revived = (component + 1) % n;
                let next = deadline.saturating_add(Time::new(tick % 11));
                if frontier.key[revived] == EXHAUSTED {
                    frontier.push(revived, next);
                    heap.push(Reverse((next, revived)));
                }
            }
        }
    }

    #[test]
    fn frontier_queue_matches_binary_heap_pop_order() {
        assert_frontier_matches_heap(1, &[(0, 9)], 40);
        assert_frontier_matches_heap(2, &[(0, 5), (1, 5)], 64);
        assert_frontier_matches_heap(5, &[(0, 40), (2, 3), (4, 3)], 200);
        assert_frontier_matches_heap(8, &[(7, 1), (3, 2), (0, 2), (5, 9), (1, 100)], 300);
        // Odd widths exercise the half-leaf tree levels.
        assert_frontier_matches_heap(7, &[(6, 2), (5, 2), (4, 2), (3, 2), (2, 2)], 250);
    }

    #[test]
    fn frontier_queue_handles_empty_and_exhausted_states() {
        let mut frontier = FrontierQueue::default();
        frontier.reset(0);
        frontier.rebuild();
        assert_eq!(frontier.pop(), None);

        frontier.reset(3);
        frontier.rebuild();
        assert_eq!(frontier.pop(), None, "all slots exhausted");

        frontier.seed(1, Time::new(17));
        frontier.rebuild();
        assert_eq!(frontier.pop(), Some((Time::new(17), 1)));
        assert_eq!(frontier.pop(), None);
        frontier.push(2, Time::new(4));
        assert_eq!(frontier.pop(), Some((Time::new(4), 2)));
        assert_eq!(frontier.pop(), None);
    }
}
