//! # `edf-serve` — online EDF admission control over the view family
//!
//! A long-running service answering **admit / evict / what-if** requests
//! for thousands of independently prepared workloads ("tenants"), each
//! held behind one [`EditView`]: every request is a structural edit of the
//! tenant's [`PreparedWorkload`], re-analyzed in place through the delta
//! path (deadline-order repair, horizon refresh, in-place kernel rebuild)
//! instead of a cold re-preparation.
//!
//! The service commits an edit only when the paper's all-approximated
//! exact test accepts the edited system; a rejected or hypothetical edit
//! is rolled back through [`WorkloadView::revert`], so a tenant's
//! committed state is always a feasibility-checked snapshot.
//!
//! Two service-level objectives are offered ([`SlaMode`]):
//!
//! * **Exact** — every request runs the exact test; verdicts are always
//!   decisive (unless a [watchdog guard](WatchdogConfig) fires first).
//! * **Budgeted** — the same exact test, run once under a per-request
//!   work allowance.  The test is adaptive already (it approximates
//!   every task and withdraws approximations only where a comparison
//!   fails), so when the allowance runs out mid-analysis the service
//!   answers an **honest [`Verdict::Unknown`]** (and declines the
//!   admission) rather than a wrong verdict.  A decisive budgeted
//!   analysis is the Exact-mode analysis, so budgeting never trades
//!   correctness — only decisiveness.
//!
//! Degradation is **budget-first**: every wall-clock allowance (the
//! budgeted deadline, the watchdog guard, the degraded deadline) is
//! converted once into deterministic [`WorkBudget`] units at the
//! service's calibrated [`work rate`](AdmissionService::work_rate), and
//! each request's analysis is metered against its own unit budget.
//! Which requests exhaust is therefore a pure function of the workload
//! and the configured allowances, making load shedding and the
//! Exact→Budgeted hysteresis bit-reproducible across runs and machines;
//! the wall clock is read only by
//! [`calibrate_work_rate`](AdmissionService::calibrate_work_rate).
//! [`SlaMode::BudgetedUnits`] expresses the allowance directly in units,
//! with no wall-clock conversion at all.
//!
//! # Fault tolerance
//!
//! The service is built to survive crashes, overload and internal faults
//! with honest answers:
//!
//! * **Durability** — with a [`journal::Journal`] attached (see
//!   [`AdmissionService::recover`]), every committed mutation (tenant
//!   creation, admission, eviction, mode change) is appended to an
//!   append-only checksummed log *before* it takes effect in memory.
//!   Restarting from the journal replays the valid prefix and rebuilds
//!   every tenant bit-identically; a torn tail from a crash is truncated,
//!   never misread.
//! * **Watchdog + load shedding** — with a [`WatchdogConfig`] set, every
//!   request (Exact mode included) runs under a guard allowance,
//!   budget-first: the guard converts to deterministic work units and a
//!   request that cannot decide within them answers an honest
//!   [`Verdict::Unknown`]; sustained trips degrade the service to
//!   [`SlaMode::Budgeted`] with hysteresis
//!   ([`AdmissionService::is_degraded`]) so one pathological tenant
//!   cannot stall the queue.  Guard-unit exhaustions count as trips;
//!   SLA budget exhaustions do not.
//! * **Panic isolation** — per-request analysis runs under
//!   [`catch_unwind`]; a panic marks the tenant's view poisoned
//!   ([`WorkloadView::is_poisoned`]) and rebuilds it cold from the
//!   committed state, so one bad request can never corrupt or kill other
//!   tenants.  The request is answered with
//!   [`RequestError::AnalysisPanic`] — exactly one reply, never a
//!   fabricated verdict.
//! * **Structured errors + caps** — every fallible entry point returns a
//!   [`RequestError`] with a stable machine-readable
//!   [`code`](RequestError::code); [`ServiceLimits`] bounds tenant count,
//!   per-tenant components and tenant-name length so malformed or hostile
//!   traffic cannot exhaust the service.
//! * **Deterministic fault injection** — a seeded [`fault::FaultPlan`]
//!   can be attached ([`AdmissionService::set_fault_plan`]) to inject
//!   analysis panics, watchdog fires, budget exhaustions and journal
//!   write faults through the *production* isolation and checkpoint
//!   paths; the `fault_injection` test harness drives it and asserts the
//!   invariants (one reply per request, no wrong verdicts, state always
//!   recoverable).
//!
//! The `edf-serve` binary (see `src/main.rs`) exposes the service over a
//! line protocol on stdin/stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod journal;
pub mod protocol;

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use edf_analysis::tests::AllApproximatedTest;
use edf_analysis::workload::DemandComponent;
use edf_analysis::{
    Analysis, AnalysisScratch, EditView, FeasibilityTest, PreparedWorkload, Progress,
    ProgressPhase, Verdict, WorkBudget, WorkloadView,
};
use edf_model::Time;

use fault::{FaultPlan, RequestFaults};
use journal::{Journal, JournalRecord, JournalState};

/// Service-level objective for analysis latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaMode {
    /// Run the uncapped exact test on every request.  Verdicts are always
    /// decisive; latency is whatever exactness costs (unless a watchdog
    /// guard caps it).
    Exact,
    /// Anytime mode: run the exact test under a per-request allowance
    /// and answer an honest [`Verdict::Unknown`] if it runs out first.
    /// A decisive answer is the Exact-mode answer, so this mode can
    /// return a *missing* verdict but never a *wrong* one.  The deadline
    /// is converted **once** into deterministic work units at the
    /// service's calibrated [`work rate`](AdmissionService::work_rate);
    /// the analysis then meters units, not the clock, so the degradation
    /// point is reproducible.
    Budgeted {
        /// Per-request analysis deadline.  [`Duration::ZERO`] permits only
        /// the free checks (the exact `U > 1` comparison).
        deadline: Duration,
    },
    /// Anytime mode with the per-request allowance expressed directly in
    /// deterministic [`WorkBudget`] units — no wall-clock conversion at
    /// all, so the same request stream degrades identically on any
    /// machine.  A unit is one checkpointed analysis-loop step (see
    /// [`edf_analysis::budget`]).
    BudgetedUnits {
        /// Per-request work-unit allowance.  Zero permits only the free
        /// checks (the exact `U > 1` comparison).
        units: u64,
    },
}

/// The request watchdog: a guard allowance over every request plus the
/// hysteresis thresholds for load shedding.
///
/// The guard is configured as wall-clock time but enforced
/// **budget-first**: it converts once into deterministic work units at
/// the service's calibrated [`work rate`](AdmissionService::work_rate),
/// and a request that exhausts the guard units before a decisive verdict
/// answers an honest [`Verdict::Unknown`] and counts one *trip* — the
/// same request stream trips at the same requests on every run.
/// [`trip_threshold`](Self::trip_threshold) consecutive trips degrade the
/// service to [`SlaMode::Budgeted`] with
/// [`degraded_deadline`](Self::degraded_deadline);
/// [`recovery_threshold`](Self::recovery_threshold) consecutive clean
/// requests restore the configured mode.  Trips are counted only against
/// the guard itself — a request that merely exhausts its (shorter) SLA
/// budget is not a trip, so a deliberately tight budget never triggers
/// shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Wall-clock guard applied to every request, Exact mode included.
    pub guard: Duration,
    /// Consecutive guard trips before degrading to budgeted mode.
    pub trip_threshold: u32,
    /// Consecutive clean requests before restoring the configured mode.
    pub recovery_threshold: u32,
    /// The [`SlaMode::Budgeted`] deadline used while degraded.
    pub degraded_deadline: Duration,
}

impl WatchdogConfig {
    /// A watchdog with the given guard and default hysteresis: degrade
    /// after 3 consecutive trips to a budget of `guard / 4`, recover
    /// after 8 consecutive clean requests.
    #[must_use]
    pub fn with_guard(guard: Duration) -> Self {
        WatchdogConfig {
            guard,
            trip_threshold: 3,
            recovery_threshold: 8,
            degraded_deadline: guard / 4,
        }
    }
}

/// Resource caps enforced at the service API layer, so malformed or
/// hostile traffic cannot exhaust memory through unbounded tenant or
/// component growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLimits {
    /// Maximum number of tenants the service will create.
    pub max_tenants: usize,
    /// Maximum committed components per tenant.
    pub max_components_per_tenant: usize,
    /// Maximum tenant-name length in bytes.
    pub max_tenant_name_bytes: usize,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            max_tenants: 65_536,
            max_components_per_tenant: 65_536,
            max_tenant_name_bytes: 256,
        }
    }
}

/// Why a [`DemandComponent`] was refused before any analysis ran (see
/// [`validate_component`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentFault {
    /// Zero execution cost: demands nothing, admits vacuously, and breaks
    /// downstream rationals expecting positive cost.
    ZeroCost,
    /// The (relative) deadline is zero: the first deadline does not lie
    /// after the release offset, so no positive-cost job can ever meet it
    /// and dbf windows collapse.
    ZeroDeadline,
    /// A periodic component with period zero: an infinite arrival rate,
    /// undefined utilization.
    ZeroPeriod,
}

impl fmt::Display for ComponentFault {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentFault::ZeroCost => write!(formatter, "zero cost"),
            ComponentFault::ZeroDeadline => write!(formatter, "zero relative deadline"),
            ComponentFault::ZeroPeriod => write!(formatter, "zero period"),
        }
    }
}

/// Rejects malformed components before a [`DemandComponent`] reaches the
/// analysis: zero cost, zero relative deadline (deadline not after the
/// release offset) or zero period.
///
/// The `edf-model` constructors (`Task::new`, `EventStream::new`,
/// `Transaction`, `ArrivalCurve`) already validate these invariants
/// through `Result`-returning constructors; the raw
/// [`DemandComponent`] constructors used by the wire protocol do not,
/// so the service front door enforces them here.
///
/// # Errors
///
/// The specific [`ComponentFault`] found.
pub fn validate_component(component: &DemandComponent) -> Result<(), ComponentFault> {
    if component.wcet().is_zero() {
        return Err(ComponentFault::ZeroCost);
    }
    if component.first_deadline() <= component.release_offset() {
        return Err(ComponentFault::ZeroDeadline);
    }
    if component.period().is_some_and(|period| period.is_zero()) {
        return Err(ComponentFault::ZeroPeriod);
    }
    Ok(())
}

/// A structured request failure with a stable, machine-readable
/// [`code`](Self::code).  The wire protocol renders these as
/// `ERR code=<code> <detail>` lines; the codes are part of the protocol
/// contract and never change meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The input line was not a well-formed request line (non-UTF-8
    /// bytes, over the length cap, …).
    BadLine {
        /// What was wrong with the line.
        reason: &'static str,
    },
    /// The request verb is not part of the protocol.
    UnknownCommand {
        /// The unrecognized verb.
        verb: String,
    },
    /// The verb was recognized but its arguments were malformed.
    Usage {
        /// The expected form.
        usage: &'static str,
    },
    /// The component failed [`validate_component`].
    InvalidComponent {
        /// The specific fault.
        fault: ComponentFault,
    },
    /// Creating the tenant would exceed [`ServiceLimits::max_tenants`].
    TenantLimit {
        /// The configured cap.
        limit: usize,
    },
    /// The admission would exceed
    /// [`ServiceLimits::max_components_per_tenant`].
    ComponentLimit {
        /// The configured cap.
        limit: usize,
    },
    /// The tenant name exceeds [`ServiceLimits::max_tenant_name_bytes`].
    TenantName {
        /// The configured cap.
        limit: usize,
    },
    /// The named tenant does not exist.
    UnknownTenant {
        /// The requested tenant.
        tenant: String,
    },
    /// The tenant exists but holds no component with this id.
    UnknownComponent {
        /// The requested tenant.
        tenant: String,
        /// The unknown component id.
        id: u64,
    },
    /// The analysis panicked; the tenant's view was rebuilt from its
    /// committed state and no verdict was fabricated.
    AnalysisPanic {
        /// The tenant whose request panicked.
        tenant: String,
    },
    /// A journal I/O operation failed; the mutation was rolled back so
    /// memory never runs ahead of an append the journal refused.
    Journal {
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// The operation needs a journal but none is attached.
    NoJournal,
}

impl RequestError {
    /// The stable machine-readable error code (the `code=` value on the
    /// wire).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::BadLine { .. } => "bad-line",
            RequestError::UnknownCommand { .. } => "unknown-command",
            RequestError::Usage { .. } => "usage",
            RequestError::InvalidComponent { .. } => "invalid-component",
            RequestError::TenantLimit { .. } => "tenant-limit",
            RequestError::ComponentLimit { .. } => "component-limit",
            RequestError::TenantName { .. } => "tenant-name",
            RequestError::UnknownTenant { .. } => "unknown-tenant",
            RequestError::UnknownComponent { .. } => "unknown-component",
            RequestError::AnalysisPanic { .. } => "analysis-panic",
            RequestError::Journal { .. } => "journal",
            RequestError::NoJournal => "no-journal",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(formatter, "code={}", self.code())?;
        match self {
            RequestError::BadLine { reason } => write!(formatter, " {reason}"),
            RequestError::UnknownCommand { verb } => write!(formatter, " {verb}"),
            RequestError::Usage { usage } => write!(formatter, " {usage}"),
            RequestError::InvalidComponent { fault } => write!(formatter, " {fault}"),
            RequestError::TenantLimit { limit } => write!(formatter, " max {limit} tenants"),
            RequestError::ComponentLimit { limit } => {
                write!(formatter, " max {limit} components per tenant")
            }
            RequestError::TenantName { limit } => {
                write!(formatter, " tenant name over {limit} bytes")
            }
            RequestError::UnknownTenant { tenant } => write!(formatter, " {tenant}"),
            RequestError::UnknownComponent { tenant, id } => {
                write!(formatter, " no component {id} for tenant {tenant}")
            }
            RequestError::AnalysisPanic { tenant } => {
                write!(
                    formatter,
                    " analysis panicked for tenant {tenant}; view rebuilt"
                )
            }
            RequestError::Journal { error } => write!(formatter, " {error}"),
            RequestError::NoJournal => write!(formatter, " no journal attached"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The service's decision on an [`AdmissionService::admit`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The edited system is feasible; the component was committed under
    /// this service-assigned id (stable across later edits, usable with
    /// [`AdmissionService::evict`]).
    Admitted(u64),
    /// The edited system provably misses a deadline; the edit was rolled
    /// back.
    Rejected,
    /// The budget (or watchdog guard) expired before a decisive verdict;
    /// the edit was rolled back (never admitted on an unknown).
    Undetermined,
}

/// Outcome of an admit or what-if request: the decision plus the analysis
/// that produced it (iteration counts make the §5 effort metric visible
/// per request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionResponse {
    /// What the service decided (and, for admissions, the component id).
    pub decision: AdmissionDecision,
    /// The deciding analysis.
    pub analysis: Analysis,
}

/// A point-in-time summary of one tenant's committed system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStat {
    /// Number of committed demand components.
    pub components: usize,
    /// Total utilization of the committed system.
    pub utilization: f64,
}

/// One tenant: the edit view over its committed system plus the committed
/// `(id, component)` list, parallel to the view's component indices.  The
/// committed list is the rebuild source of truth after a panic and the
/// snapshot source for journal compaction.
#[derive(Debug)]
struct Tenant {
    view: EditView,
    committed: Vec<(u64, DemandComponent)>,
}

impl Tenant {
    fn empty() -> Self {
        Tenant {
            view: EditView::new(&PreparedWorkload::from_components(Vec::new())),
            committed: Vec::new(),
        }
    }

    fn from_committed(committed: Vec<(u64, DemandComponent)>) -> Self {
        let components: Vec<DemandComponent> =
            committed.iter().map(|&(_, component)| component).collect();
        Tenant {
            view: EditView::new(&PreparedWorkload::from_components(components)),
            committed,
        }
    }

    /// Rebuilds the view cold from the committed list (the recovery path
    /// after a panic unwound mid-edit).
    fn rebuild(&mut self) {
        let components: Vec<DemandComponent> = self
            .committed
            .iter()
            .map(|&(_, component)| component)
            .collect();
        self.view
            .rebuild_from(&PreparedWorkload::from_components(components));
    }
}

/// The admission-control service: a map of tenants, the active
/// [`SlaMode`], one reusable [`AnalysisScratch`] shared by every request,
/// and the optional fault-tolerance attachments (journal, watchdog,
/// fault plan — see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use edf_analysis::workload::DemandComponent;
/// use edf_model::Time;
/// use edf_serve::{AdmissionDecision, AdmissionService};
///
/// let mut service = AdmissionService::new();
/// let heavy = DemandComponent::periodic(Time::new(6), Time::new(8), Time::new(10));
/// let id = match service.admit("tenant-a", heavy).unwrap().decision {
///     AdmissionDecision::Admitted(id) => id,
///     other => panic!("feasible component declined: {other:?}"),
/// };
///
/// // A second heavy component would push utilization past one: rejected,
/// // and the tenant's committed state is untouched.
/// let response = service.admit("tenant-a", heavy).unwrap();
/// assert_eq!(response.decision, AdmissionDecision::Rejected);
/// assert_eq!(service.stat("tenant-a").unwrap().components, 1);
///
/// service.evict("tenant-a", id).unwrap();
/// assert_eq!(service.stat("tenant-a").unwrap().components, 0);
/// ```
#[derive(Debug)]
pub struct AdmissionService {
    tenants: HashMap<String, Tenant>,
    mode: SlaMode,
    scratch: AnalysisScratch,
    next_id: u64,
    limits: ServiceLimits,
    journal: Option<Journal>,
    watchdog: Option<WatchdogConfig>,
    fault_plan: Option<FaultPlan>,
    degraded: bool,
    trip_streak: u32,
    healthy_streak: u32,
    guard_trips: u64,
    panics_isolated: u64,
    budget_exhaustions: u64,
    work_rate: u64,
}

/// Default wall-clock→work-unit conversion: work units per microsecond.
/// One checkpointed loop step lands in the tens of nanoseconds on a
/// mid-range core, so 25 units/µs is a conservative stand-in until
/// [`AdmissionService::calibrate_work_rate`] measures the real rate.
const DEFAULT_WORK_RATE: u64 = 25;

/// Converts a wall-clock allowance into deterministic work units at the
/// given rate (units per microsecond), saturating at `u64::MAX`.
fn units_for(allowance: Duration, work_rate: u64) -> u64 {
    u64::try_from(allowance.as_micros())
        .unwrap_or(u64::MAX)
        .saturating_mul(work_rate)
}

impl Default for AdmissionService {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionService {
    /// A fresh service in [`SlaMode::Exact`] with no tenants.
    #[must_use]
    pub fn new() -> Self {
        Self::with_mode(SlaMode::Exact)
    }

    /// A fresh service in the given mode.
    #[must_use]
    pub fn with_mode(mode: SlaMode) -> Self {
        AdmissionService {
            tenants: HashMap::new(),
            mode,
            scratch: AnalysisScratch::new(),
            next_id: 0,
            limits: ServiceLimits::default(),
            journal: None,
            watchdog: None,
            fault_plan: None,
            degraded: false,
            trip_streak: 0,
            healthy_streak: 0,
            guard_trips: 0,
            panics_isolated: 0,
            budget_exhaustions: 0,
            work_rate: DEFAULT_WORK_RATE,
        }
    }

    /// Opens (or creates) the journal at `path`, replays its valid prefix
    /// and returns a service whose tenants, mode and id allocator are the
    /// recovered pre-crash committed state.  All subsequent mutations are
    /// journaled before they take effect.
    ///
    /// # Errors
    ///
    /// Real I/O errors from opening or truncating the journal file;
    /// corruption is not an error (it bounds the replayed prefix).
    pub fn recover(path: impl AsRef<Path>) -> io::Result<Self> {
        let (journal, records) = Journal::open(path)?;
        let mut state = JournalState::default();
        for record in &records {
            state.apply(record);
        }
        let mut service = Self::with_mode(state.mode.unwrap_or(SlaMode::Exact));
        for (tenant, committed) in state.tenants {
            service
                .tenants
                .insert(tenant, Tenant::from_committed(committed));
        }
        service.next_id = state.next_id;
        service.journal = Some(journal);
        Ok(service)
    }

    /// The active service-level objective (the configured one, even while
    /// degraded — see [`AdmissionService::is_degraded`]).
    #[must_use]
    pub fn mode(&self) -> SlaMode {
        self.mode
    }

    /// Switches the service-level objective for subsequent requests
    /// (journaled when a journal is attached).  A [`SlaMode::Budgeted`]
    /// deadline is clamped to `u64::MAX` nanoseconds, the journal's
    /// range, so the live mode and a replayed one agree.
    ///
    /// # Errors
    ///
    /// [`RequestError::Journal`] if the mode record cannot be appended;
    /// the mode is left unchanged.
    pub fn set_mode(&mut self, mode: SlaMode) -> Result<(), RequestError> {
        let mode = match mode {
            SlaMode::Budgeted { deadline } => SlaMode::Budgeted {
                deadline: deadline.min(Duration::from_nanos(u64::MAX)),
            },
            other => other,
        };
        self.journal_append(&JournalRecord::Mode(mode))?;
        self.mode = mode;
        Ok(())
    }

    /// Replaces the resource caps.
    pub fn set_limits(&mut self, limits: ServiceLimits) {
        self.limits = limits;
    }

    /// The active resource caps.
    #[must_use]
    pub fn limits(&self) -> ServiceLimits {
        self.limits
    }

    /// Installs (or removes) the request watchdog.
    pub fn set_watchdog(&mut self, watchdog: Option<WatchdogConfig>) {
        self.watchdog = watchdog;
        self.degraded = false;
        self.trip_streak = 0;
        self.healthy_streak = 0;
    }

    /// Attaches a deterministic fault plan; every subsequent request and
    /// journal append consults it (see [`fault::FaultPlan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Detaches and returns the fault plan (with its injection report).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault_plan.take()
    }

    /// Whether the watchdog has currently shed load (degraded to
    /// [`SlaMode::Budgeted`] with the configured degraded deadline).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Total watchdog guard trips so far.
    #[must_use]
    pub fn guard_trips(&self) -> u64 {
        self.guard_trips
    }

    /// Total analysis panics isolated (each rebuilt one tenant view).
    #[must_use]
    pub fn panics_isolated(&self) -> u64 {
        self.panics_isolated
    }

    /// Total requests whose work budget exhausted before a decisive
    /// verdict (each answered an honest [`Verdict::Unknown`] carrying a
    /// progress record).
    #[must_use]
    pub fn budget_exhaustions(&self) -> u64 {
        self.budget_exhaustions
    }

    /// The wall-clock→work-unit conversion rate, in units per
    /// microsecond.  Wall-clock allowances ([`SlaMode::Budgeted`], the
    /// watchdog guard, the degraded deadline) are multiplied by this rate
    /// once per request to obtain the deterministic unit budget the
    /// analysis is metered against.
    #[must_use]
    pub fn work_rate(&self) -> u64 {
        self.work_rate
    }

    /// Pins the wall-clock→work-unit rate explicitly (units per
    /// microsecond, clamped to at least 1).  Tests and deterministic
    /// replays set the rate instead of calibrating, so unit budgets are
    /// machine-independent.
    pub fn set_work_rate(&mut self, units_per_micro: u64) {
        self.work_rate = units_per_micro.max(1);
    }

    /// Calibrates the wall-clock→work-unit rate **once** from the wall
    /// clock: runs the exact test over a fixed reference workload under
    /// an unlimited (metering) budget for a couple of milliseconds and
    /// divides units spent by elapsed microseconds.  After this single
    /// measurement every degradation decision is a pure function of
    /// workloads and configured allowances — the clock is never consulted
    /// again.  Returns the measured rate.
    pub fn calibrate_work_rate(&mut self) -> u64 {
        // A mid-size sporadic set with spread deadlines and periods: the
        // exact test walks thousands of checkpointed steps per pass, so
        // the units-per-microsecond quotient is well conditioned.
        let components: Vec<DemandComponent> = (0..24)
            .map(|index| {
                DemandComponent::periodic(
                    Time::new(1 + index % 5),
                    Time::new(11 + 7 * index),
                    Time::new(40 + 9 * index),
                )
            })
            .collect();
        let prepared = PreparedWorkload::from_components(components);
        let test = AllApproximatedTest::new();
        let mut spent = 0u64;
        let mut rounds = 0u32;
        let start = Instant::now();
        while rounds < 4 || start.elapsed() < Duration::from_millis(2) {
            self.scratch.set_budget(WorkBudget::unlimited());
            let _ = test.analyze_prepared_with(&prepared, &mut self.scratch);
            spent = spent.saturating_add(self.scratch.take_budget().spent());
            rounds += 1;
        }
        let micros = u64::try_from(start.elapsed().as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        self.work_rate = (spent / micros).max(1);
        self.work_rate
    }

    /// Number of known tenants (admitting to a new name creates it).
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// `fsync`s the journal: everything committed so far survives machine
    /// death (process death is already covered by the append contract).
    ///
    /// # Errors
    ///
    /// [`RequestError::NoJournal`] without a journal;
    /// [`RequestError::Journal`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), RequestError> {
        match self.journal.as_mut() {
            Some(journal) => journal.sync().map_err(|error| RequestError::Journal {
                error: error.to_string(),
            }),
            None => Err(RequestError::NoJournal),
        }
    }

    /// Compacts the journal to a snapshot of the current committed state
    /// (atomically: the replacement is written beside the journal, synced
    /// and renamed into place).  Returns the number of snapshot records.
    ///
    /// # Errors
    ///
    /// [`RequestError::NoJournal`] without a journal;
    /// [`RequestError::Journal`] on I/O failure.
    pub fn snapshot(&mut self) -> Result<u64, RequestError> {
        if self.journal.is_none() {
            return Err(RequestError::NoJournal);
        }
        let records = self.snapshot_records();
        let journal = self.journal.as_mut().expect("checked above");
        journal
            .compact(&records)
            .map_err(|error| RequestError::Journal {
                error: error.to_string(),
            })?;
        Ok(records.len() as u64)
    }

    /// The minimal record sequence reproducing the current committed
    /// state (what [`AdmissionService::snapshot`] writes).
    fn snapshot_records(&self) -> Vec<JournalRecord> {
        let mut records = vec![
            JournalRecord::Mode(self.mode),
            JournalRecord::NextId(self.next_id),
        ];
        for (name, tenant) in &self.tenants {
            records.push(JournalRecord::Tenant {
                tenant: name.clone(),
            });
            for &(id, component) in &tenant.committed {
                records.push(JournalRecord::Admit {
                    tenant: name.clone(),
                    id,
                    component,
                });
            }
        }
        records
    }

    /// Registers `tenant` with `base` as its initial committed system
    /// (unchecked for feasibility: the base is the operator's prior, not
    /// an admission — but each component must still pass
    /// [`validate_component`]).  Replaces any existing tenant of that
    /// name; returns the component ids assigned to the base components,
    /// in component order.
    ///
    /// # Errors
    ///
    /// Validation, cap or journal errors; on any error nothing changes.
    pub fn register_tenant(
        &mut self,
        tenant: &str,
        base: &PreparedWorkload,
    ) -> Result<Vec<u64>, RequestError> {
        self.check_tenant_name(tenant)?;
        if !self.tenants.contains_key(tenant) && self.tenants.len() >= self.limits.max_tenants {
            return Err(RequestError::TenantLimit {
                limit: self.limits.max_tenants,
            });
        }
        if base.components().len() > self.limits.max_components_per_tenant {
            return Err(RequestError::ComponentLimit {
                limit: self.limits.max_components_per_tenant,
            });
        }
        for component in base.components() {
            validate_component(component)
                .map_err(|fault| RequestError::InvalidComponent { fault })?;
        }
        let committed: Vec<(u64, DemandComponent)> = base
            .components()
            .iter()
            .enumerate()
            .map(|(offset, &component)| (self.next_id + offset as u64, component))
            .collect();
        self.journal_append(&JournalRecord::Tenant {
            tenant: tenant.to_owned(),
        })?;
        for &(id, component) in &committed {
            self.journal_append(&JournalRecord::Admit {
                tenant: tenant.to_owned(),
                id,
                component,
            })?;
        }
        self.next_id += committed.len() as u64;
        let ids: Vec<u64> = committed.iter().map(|&(id, _)| id).collect();
        self.tenants.insert(
            tenant.to_owned(),
            Tenant {
                view: EditView::new(base),
                committed,
            },
        );
        Ok(ids)
    }

    /// Admits `component` into `tenant`'s system if the edited system
    /// passes the active mode's analysis; otherwise rolls the edit back.
    /// Unknown tenants start from an empty system.  Committed admissions
    /// are journaled before they take effect.
    ///
    /// # Errors
    ///
    /// Validation, cap, journal or panic-isolation errors; on any error
    /// the committed state is unchanged.
    pub fn admit(
        &mut self,
        tenant: &str,
        component: DemandComponent,
    ) -> Result<AdmissionResponse, RequestError> {
        let faults = self.draw_request_faults();
        self.prepare_admit_target(tenant, component)?;
        let analysis = self.analyze_edit(tenant, component, faults)?;
        if !analysis.verdict.is_feasible() {
            // The rollback leaves the view dirty on purpose: the refresh
            // is paid lazily by whoever next needs the finalized state
            // (usually the next request's own finalize), keeping the
            // steady-state cost at one refresh per request.
            let entry = self.tenants.get_mut(tenant).expect("prepared above");
            entry.view.revert();
            return Ok(AdmissionResponse {
                decision: decline(analysis.verdict),
                analysis,
            });
        }
        let id = self.next_id;
        // Journal-first: if the append fails the admission is rolled back,
        // so memory never runs ahead of the journal.
        let appended = self.journal_append(&JournalRecord::Admit {
            tenant: tenant.to_owned(),
            id,
            component,
        });
        let entry = self.tenants.get_mut(tenant).expect("prepared above");
        if let Err(error) = appended {
            entry.view.revert();
            return Err(error);
        }
        entry.view.commit();
        entry.committed.push((id, component));
        self.next_id += 1;
        Ok(AdmissionResponse {
            decision: AdmissionDecision::Admitted(id),
            analysis,
        })
    }

    /// Answers "would this component be admitted?" without changing the
    /// tenant's committed state: the edit is applied, analyzed, and
    /// reverted.  Unknown tenants are evaluated against an empty system
    /// (and stay unregistered).
    ///
    /// # Errors
    ///
    /// Validation or panic-isolation errors; committed state is never
    /// changed either way.
    pub fn what_if(
        &mut self,
        tenant: &str,
        component: DemandComponent,
    ) -> Result<AdmissionResponse, RequestError> {
        let faults = self.draw_request_faults();
        validate_component(&component).map_err(|fault| RequestError::InvalidComponent { fault })?;
        self.check_tenant_name(tenant)?;
        let analysis = self.analyze_edit(tenant, component, faults)?;
        if let Some(entry) = self.tenants.get_mut(tenant) {
            // Lazy rollback, as in `admit`.
            entry.view.revert();
        }
        Ok(AdmissionResponse {
            decision: hypothetical(&analysis),
            analysis,
        })
    }

    /// Removes the component with the given service-assigned id from
    /// `tenant` and commits the shrunk system (removal only reduces
    /// demand, so no re-admission test is needed).  The eviction is
    /// journaled before it takes effect.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnknownTenant`] / [`RequestError::UnknownComponent`]
    /// when the target does not exist; [`RequestError::Journal`] if the
    /// record cannot be appended (state unchanged).
    pub fn evict(&mut self, tenant: &str, id: u64) -> Result<(), RequestError> {
        let Some(entry) = self.tenants.get_mut(tenant) else {
            return Err(RequestError::UnknownTenant {
                tenant: tenant.to_owned(),
            });
        };
        let Some(index) = entry
            .committed
            .iter()
            .position(|&(existing, _)| existing == id)
        else {
            return Err(RequestError::UnknownComponent {
                tenant: tenant.to_owned(),
                id,
            });
        };
        self.journal_append(&JournalRecord::Evict {
            tenant: tenant.to_owned(),
            id,
        })?;
        let entry = self.tenants.get_mut(tenant).expect("checked above");
        entry.committed.remove(index);
        entry.view.remove_component(index);
        entry.view.commit();
        Ok(())
    }

    /// A summary of `tenant`'s committed system, or `None` if unknown.
    /// Finalizes any pending lazy rollback first (hence `&mut self`).
    pub fn stat(&mut self, tenant: &str) -> Option<TenantStat> {
        let entry = self.tenants.get_mut(tenant)?;
        let prepared = entry.view.prepared();
        Some(TenantStat {
            components: prepared.components().len(),
            utilization: prepared.utilization(),
        })
    }

    /// Draws this request's injected faults from the attached plan (none
    /// without a plan).
    fn draw_request_faults(&mut self) -> RequestFaults {
        self.fault_plan
            .as_mut()
            .map_or_else(RequestFaults::default, FaultPlan::next_request)
    }

    /// The mode requests actually run under: the configured mode, or the
    /// watchdog's degraded budget while load is being shed.
    fn effective_mode(&self) -> SlaMode {
        match (self.degraded, self.watchdog) {
            (true, Some(config)) => SlaMode::Budgeted {
                deadline: config.degraded_deadline,
            },
            _ => self.mode,
        }
    }

    /// Feeds one guard observation into the hysteresis state machine.
    fn observe_guard(&mut self, tripped: bool) {
        let Some(config) = self.watchdog else {
            return;
        };
        if tripped {
            self.guard_trips += 1;
            self.healthy_streak = 0;
            self.trip_streak = self.trip_streak.saturating_add(1);
            if self.trip_streak >= config.trip_threshold {
                self.degraded = true;
            }
        } else {
            self.trip_streak = 0;
            if self.degraded {
                self.healthy_streak = self.healthy_streak.saturating_add(1);
                if self.healthy_streak >= config.recovery_threshold {
                    self.degraded = false;
                    self.healthy_streak = 0;
                }
            }
        }
    }

    /// Appends one record to the journal (no-op without one), routing
    /// through the fault plan's write-fault injection point.
    fn journal_append(&mut self, record: &JournalRecord) -> Result<(), RequestError> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let fault = self.fault_plan.as_mut().and_then(FaultPlan::next_append);
        let result = match fault {
            Some(fault) => journal.append_faulty(record, fault),
            None => journal.append(record),
        };
        result.map_err(|error| RequestError::Journal {
            error: error.to_string(),
        })
    }

    /// Caps the tenant name length.
    fn check_tenant_name(&self, tenant: &str) -> Result<(), RequestError> {
        if tenant.len() > self.limits.max_tenant_name_bytes {
            return Err(RequestError::TenantName {
                limit: self.limits.max_tenant_name_bytes,
            });
        }
        Ok(())
    }

    /// Validation + caps of an admit; also creates (and journals) the
    /// tenant when new.
    fn prepare_admit_target(
        &mut self,
        tenant: &str,
        component: DemandComponent,
    ) -> Result<(), RequestError> {
        validate_component(&component).map_err(|fault| RequestError::InvalidComponent { fault })?;
        self.check_tenant_name(tenant)?;
        match self.tenants.get(tenant) {
            Some(entry) => {
                if entry.committed.len() >= self.limits.max_components_per_tenant {
                    return Err(RequestError::ComponentLimit {
                        limit: self.limits.max_components_per_tenant,
                    });
                }
            }
            None => {
                if self.tenants.len() >= self.limits.max_tenants {
                    return Err(RequestError::TenantLimit {
                        limit: self.limits.max_tenants,
                    });
                }
                self.journal_append(&JournalRecord::Tenant {
                    tenant: tenant.to_owned(),
                })?;
                self.tenants.insert(tenant.to_owned(), Tenant::empty());
            }
        }
        Ok(())
    }

    /// Applies `component` to `tenant`'s view and analyzes the edited
    /// system under the active mode, isolated by [`catch_unwind`].  A
    /// what-if naming an unknown tenant is analyzed against a throwaway
    /// empty view, so it registers nothing.  The edit is left pending on
    /// the tenant's view: the caller commits or reverts it.  The guard
    /// observation and the exhaustion count are taken here, so an admit
    /// and a what-if differ only in that last step.
    ///
    /// # Errors
    ///
    /// [`RequestError::AnalysisPanic`] when the analysis panicked; the
    /// tenant's view has then been rebuilt from its committed state.
    fn analyze_edit(
        &mut self,
        tenant: &str,
        component: DemandComponent,
        faults: RequestFaults,
    ) -> Result<Analysis, RequestError> {
        let mode = self.effective_mode();
        let guard = self.watchdog.map(|config| config.guard);
        let work_rate = self.work_rate;
        let mut probe;
        let view = match self.tenants.get_mut(tenant) {
            Some(entry) => &mut entry.view,
            None => {
                probe = Tenant::empty();
                &mut probe.view
            }
        };
        view.insert_component(component);
        let scratch = &mut self.scratch;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if faults.analysis_panic {
                panic!("injected analysis panic");
            }
            analyze_one(
                mode,
                guard,
                faults.guard_fire,
                faults.budget_exhaust,
                work_rate,
                view.prepared(),
                scratch,
            )
        }));
        let Ok((analysis, tripped)) = outcome else {
            return Err(self.isolate_panic(tenant));
        };
        self.observe_guard(tripped);
        self.budget_exhaustions += u64::from(analysis.budget_exhausted());
        Ok(analysis)
    }

    /// The panic-isolation path: count it, rebuild the tenant's view cold
    /// from its committed list (probes and unknown tenants have nothing
    /// to rebuild), and replace the scratch arena a panic may have left
    /// inconsistent.
    fn isolate_panic(&mut self, tenant: &str) -> RequestError {
        self.panics_isolated += 1;
        self.scratch = AnalysisScratch::new();
        if let Some(entry) = self.tenants.get_mut(tenant) {
            entry.view.mark_poisoned();
            entry.rebuild();
        }
        RequestError::AnalysisPanic {
            tenant: tenant.to_owned(),
        }
    }
}

/// Maps a non-feasible verdict to the matching declined decision.
fn decline(verdict: Verdict) -> AdmissionDecision {
    if verdict.is_infeasible() {
        AdmissionDecision::Rejected
    } else {
        AdmissionDecision::Undetermined
    }
}

/// Maps a what-if analysis to the decision an admit *would* have made.
fn hypothetical(analysis: &Analysis) -> AdmissionDecision {
    match analysis.verdict {
        // The id an admission would assign is not reserved by a what-if;
        // `u64::MAX` marks the hypothetical.
        Verdict::Feasible => AdmissionDecision::Admitted(u64::MAX),
        Verdict::Infeasible => AdmissionDecision::Rejected,
        Verdict::Unknown => AdmissionDecision::Undetermined,
    }
}

/// Analyzes one prepared system under the given mode and optional
/// watchdog guard, **budget-first**: the wall-clock allowances are
/// converted once to deterministic work units and the uncapped exact
/// test runs once, metered against the smaller of the SLA and guard
/// allowances, so the request exhausts at the same step on every run.
/// The test is already adaptive (it withdraws approximations only where
/// a comparison fails), so an exhausted run answers an honest `Unknown`
/// and a decisive one is exactly the Exact-mode analysis.
///
/// Returns the analysis plus whether the *guard* (not the SLA budget)
/// was the binding exhausted allowance — the watchdog's trip signal.
/// `forced_fire` treats the guard as already expired (the fault plan's
/// simulated deadline fire): an immediate honest `Unknown`.
/// `forced_exhaust` shrinks the request's budget to zero units, driving
/// the exhaustion unwind through the production checkpoints.
fn analyze_one(
    mode: SlaMode,
    guard: Option<Duration>,
    forced_fire: bool,
    forced_exhaust: bool,
    work_rate: u64,
    prepared: &PreparedWorkload,
    scratch: &mut AnalysisScratch,
) -> (Analysis, bool) {
    if let Some(free) = free_verdict(prepared) {
        return (free, false);
    }
    if forced_fire {
        return (Analysis::trivial(Verdict::Unknown), true);
    }
    let sla_units = match mode {
        SlaMode::Exact => None,
        SlaMode::Budgeted { deadline } => Some(units_for(deadline, work_rate)),
        SlaMode::BudgetedUnits { units } => Some(units),
    };
    let guard_units = guard.map(|guard| units_for(guard, work_rate));
    let cap = [sla_units, guard_units].into_iter().flatten().min();
    let mut budget = if forced_exhaust {
        WorkBudget::limited(0)
    } else {
        cap.map_or(WorkBudget::unlimited(), WorkBudget::limited)
    };
    // Entry costs one unit.  Small systems can answer without their loops
    // ever charging, so this is what keeps the zero-allowance contract
    // (`MODE budget 0` / `MODE units 0` sheds every non-free request) and
    // guarantees that a forced exhaustion fault always unwinds to
    // `Unknown`.
    let analysis = if budget.charge(1) {
        scratch.set_budget(budget);
        let analysis = AllApproximatedTest::new().analyze_prepared_with(prepared, scratch);
        budget = scratch.take_budget();
        analysis
    } else {
        shed_analysis(&budget)
    };
    // Only a spend past the guard's own allowance is a trip: a tight SLA
    // budget alone must not trigger load shedding.
    let tripped = budget.is_exhausted() && guard_units.is_some_and(|units| budget.spent() > units);
    (analysis, tripped)
}

/// The honest `Unknown` a request answers when its budget refuses the
/// entry charge, carrying the exhausted budget's spend.
fn shed_analysis(budget: &WorkBudget) -> Analysis {
    let mut analysis = Analysis::trivial(Verdict::Unknown);
    analysis.progress = Some(Progress {
        units_spent: budget.spent(),
        phase: ProgressPhase::Bounds,
        certified_interval: None,
        bounded_level: None,
    });
    analysis
}

/// The checks that cost nothing even under a zero budget: the prepared
/// snapshot's exact `U > 1` comparison is a sound infeasibility proof.
fn free_verdict(prepared: &PreparedWorkload) -> Option<Analysis> {
    (prepared.utilization_is_exact() && prepared.utilization_exceeds_one())
        .then(|| Analysis::trivial(Verdict::Infeasible))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edf_model::Time;

    fn light(cost: u64, deadline: u64, period: u64) -> DemandComponent {
        DemandComponent::periodic(Time::new(cost), Time::new(deadline), Time::new(period))
    }

    #[test]
    fn admit_commits_feasible_and_rolls_back_infeasible() {
        let mut service = AdmissionService::new();
        let first = service.admit("a", light(4, 9, 10)).unwrap();
        assert!(matches!(first.decision, AdmissionDecision::Admitted(_)));
        let second = service.admit("a", light(9, 9, 10)).unwrap();
        assert_eq!(second.decision, AdmissionDecision::Rejected);
        let stat = service.stat("a").unwrap();
        assert_eq!(stat.components, 1);
        assert!(stat.utilization < 0.5);
    }

    #[test]
    fn what_if_never_mutates_committed_state() {
        let mut service = AdmissionService::new();
        service.admit("a", light(2, 8, 10)).unwrap();
        let before = service.stat("a").unwrap();
        let yes = service.what_if("a", light(1, 9, 10)).unwrap();
        assert_eq!(yes.decision, AdmissionDecision::Admitted(u64::MAX));
        let no = service.what_if("a", light(9, 9, 10)).unwrap();
        assert_eq!(no.decision, AdmissionDecision::Rejected);
        assert_eq!(service.stat("a").unwrap(), before);
        // A what-if against an unknown tenant does not register it.
        service.what_if("ghost", light(1, 5, 10)).unwrap();
        assert!(service.stat("ghost").is_none());
    }

    #[test]
    fn evict_removes_exactly_the_identified_component() {
        let mut service = AdmissionService::new();
        let AdmissionDecision::Admitted(first) =
            service.admit("a", light(1, 5, 10)).unwrap().decision
        else {
            panic!("expected admission")
        };
        let AdmissionDecision::Admitted(second) =
            service.admit("a", light(2, 7, 20)).unwrap().decision
        else {
            panic!("expected admission")
        };
        service.evict("a", first).unwrap();
        assert!(
            matches!(
                service.evict("a", first),
                Err(RequestError::UnknownComponent { .. })
            ),
            "ids are single-use"
        );
        assert!(matches!(
            service.evict("missing", second),
            Err(RequestError::UnknownTenant { .. })
        ));
        let stat = service.stat("a").unwrap();
        assert_eq!(stat.components, 1);
        service.evict("a", second).unwrap();
        assert_eq!(service.stat("a").unwrap().components, 0);
    }

    #[test]
    fn register_tenant_seeds_the_committed_system() {
        let mut service = AdmissionService::new();
        let base = PreparedWorkload::from_components(vec![light(2, 8, 10), light(1, 6, 20)]);
        let ids = service.register_tenant("seeded", &base).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(service.stat("seeded").unwrap().components, 2);
        service.evict("seeded", ids[0]).unwrap();
        assert_eq!(service.stat("seeded").unwrap().components, 1);
    }

    #[test]
    fn zero_budget_answers_unknown_and_declines() {
        let mut service = AdmissionService::with_mode(SlaMode::Budgeted {
            deadline: Duration::ZERO,
        });
        let response = service.admit("a", light(4, 9, 10)).unwrap();
        assert_eq!(response.analysis.verdict, Verdict::Unknown);
        assert_eq!(response.decision, AdmissionDecision::Undetermined);
        assert_eq!(
            service.stat("a").unwrap().components,
            0,
            "an unknown verdict must never admit"
        );
    }

    #[test]
    fn zero_budget_still_proves_overload_infeasible() {
        let mut service = AdmissionService::with_mode(SlaMode::Budgeted {
            deadline: Duration::ZERO,
        });
        service
            .set_mode(SlaMode::Budgeted {
                deadline: Duration::ZERO,
            })
            .unwrap();
        // U = 6/10 + 6/10 > 1: the exact rational comparison fires with
        // zero analysis budget.
        assert!(matches!(
            service.admit("a", light(6, 8, 10)).unwrap().decision,
            AdmissionDecision::Undetermined
        ));
        // Force the overload into one request: a single component with
        // utilization above one.
        let response = service.admit("b", light(11, 12, 10)).unwrap();
        assert_eq!(response.analysis.verdict, Verdict::Infeasible);
        assert_eq!(response.decision, AdmissionDecision::Rejected);
    }

    #[test]
    fn generous_budget_matches_exact_mode() {
        let mut exact = AdmissionService::new();
        let mut budgeted = AdmissionService::with_mode(SlaMode::Budgeted {
            deadline: Duration::from_secs(5),
        });
        for component in [light(4, 9, 10), light(3, 14, 20), light(9, 9, 10)] {
            let exact_verdict = exact.admit("a", component).unwrap().analysis.verdict;
            let budget_verdict = budgeted.admit("a", component).unwrap().analysis.verdict;
            assert_eq!(exact_verdict, budget_verdict);
        }
        assert_eq!(exact.stat("a").unwrap().components, 2);
        assert_eq!(budgeted.stat("a").unwrap().components, 2);
    }

    #[test]
    fn unit_budgets_shed_deterministically_and_monotonically() {
        // A work-unit allowance is machine-independent: two services with
        // the same units answer bit-identically, and growing the
        // allowance never flips a decisive verdict.
        let components = [light(4, 9, 10), light(3, 14, 20), light(9, 9, 10)];
        let run = |units: u64| {
            let mut service = AdmissionService::with_mode(SlaMode::BudgetedUnits { units });
            components
                .iter()
                .map(|&component| service.admit("a", component).unwrap().analysis)
                .collect::<Vec<_>>()
        };
        let mut decisive: Vec<Option<Analysis>> = vec![None; components.len()];
        for units in [0, 1, 10, 100, 10_000, 1_000_000] {
            let twin = run(units);
            assert_eq!(run(units), twin, "units={units} must be reproducible");
            for (index, analysis) in twin.into_iter().enumerate() {
                if let Some(first) = &decisive[index] {
                    assert_eq!(
                        &analysis, first,
                        "request {index}: a decisive verdict at a smaller budget \
                         changed at units={units}"
                    );
                } else if analysis.verdict.is_decisive() {
                    decisive[index] = Some(analysis);
                }
            }
        }
        let exact = {
            let mut service = AdmissionService::new();
            components
                .iter()
                .map(|&component| service.admit("a", component).unwrap().analysis)
                .collect::<Vec<_>>()
        };
        for (index, analysis) in exact.into_iter().enumerate() {
            assert_eq!(
                Some(analysis),
                decisive[index],
                "request {index}: the generous budget must reach the exact answer"
            );
        }
    }

    #[test]
    fn budget_exhaustions_are_counted_and_reported() {
        let mut service = AdmissionService::with_mode(SlaMode::BudgetedUnits { units: 0 });
        assert_eq!(service.budget_exhaustions(), 0);
        let response = service.admit("a", light(4, 9, 10)).unwrap();
        assert_eq!(response.decision, AdmissionDecision::Undetermined);
        assert!(response.analysis.budget_exhausted());
        let progress = response
            .analysis
            .progress
            .expect("exhaustion carries progress");
        assert!(progress.units_spent >= 1);
        assert_eq!(service.budget_exhaustions(), 1);
        service.what_if("a", light(4, 9, 10)).unwrap();
        assert_eq!(service.budget_exhaustions(), 2);
        // A tight SLA budget never drives the watchdog hysteresis.
        assert_eq!(service.guard_trips(), 0);
        assert!(!service.is_degraded());
        service.set_mode(SlaMode::Exact).unwrap();
        service.admit("a", light(4, 9, 10)).unwrap();
        assert_eq!(
            service.budget_exhaustions(),
            2,
            "decisive answers do not count"
        );
    }

    #[test]
    fn injected_budget_exhaustion_sheds_through_the_checkpoints() {
        let mut service = AdmissionService::new();
        service
            .set_fault_plan(FaultPlan::from_seed(11, 0, 0, 0).with_budget_exhaust_per_mille(1000));
        for request in 0..4 {
            let response = service.admit("a", light(4, 9, 10)).unwrap();
            assert_eq!(
                response.decision,
                AdmissionDecision::Undetermined,
                "request {request}"
            );
            assert!(response.analysis.budget_exhausted(), "request {request}");
        }
        assert_eq!(service.budget_exhaustions(), 4);
        assert_eq!(service.stat("a").unwrap().components, 0);
        assert_eq!(
            service.guard_trips(),
            0,
            "a forced exhaustion is not a watchdog fire"
        );
    }

    #[test]
    fn invalid_components_are_refused_before_analysis() {
        let mut service = AdmissionService::new();
        let zero_cost = DemandComponent::periodic(Time::new(0), Time::new(5), Time::new(10));
        let zero_deadline = DemandComponent::periodic(Time::new(1), Time::new(0), Time::new(10));
        let zero_period = DemandComponent::periodic(Time::new(1), Time::new(5), Time::new(0));
        for (component, fault) in [
            (zero_cost, ComponentFault::ZeroCost),
            (zero_deadline, ComponentFault::ZeroDeadline),
            (zero_period, ComponentFault::ZeroPeriod),
        ] {
            assert_eq!(
                service.admit("a", component),
                Err(RequestError::InvalidComponent { fault })
            );
            assert_eq!(
                service.what_if("a", component),
                Err(RequestError::InvalidComponent { fault })
            );
        }
        assert_eq!(service.tenant_count(), 0, "invalid admits create nothing");
    }

    #[test]
    fn resource_caps_are_enforced() {
        let mut service = AdmissionService::new();
        service.set_limits(ServiceLimits {
            max_tenants: 2,
            max_components_per_tenant: 1,
            max_tenant_name_bytes: 4,
        });
        service.admit("a", light(1, 9, 10)).unwrap();
        assert_eq!(
            service.admit("a", light(1, 9, 10)),
            Err(RequestError::ComponentLimit { limit: 1 })
        );
        service.admit("b", light(1, 9, 10)).unwrap();
        assert_eq!(
            service.admit("c", light(1, 9, 10)),
            Err(RequestError::TenantLimit { limit: 2 })
        );
        assert_eq!(
            service.admit("too-long-name", light(1, 9, 10)),
            Err(RequestError::TenantName { limit: 4 })
        );
    }

    #[test]
    fn injected_panic_is_isolated_and_state_survives() {
        let mut service = AdmissionService::new();
        service.admit("a", light(4, 9, 10)).unwrap();
        let before = service.stat("a").unwrap();
        // Rate 1000/1000: the next request's analysis panics.
        service.set_fault_plan(FaultPlan::from_seed(1, 1000, 0, 0));
        let error = service.admit("a", light(1, 9, 10)).unwrap_err();
        assert_eq!(error.code(), "analysis-panic");
        service.take_fault_plan();
        assert_eq!(service.panics_isolated(), 1);
        // The committed state survived the panic and the service still
        // answers correctly.
        assert_eq!(service.stat("a").unwrap(), before);
        let response = service.admit("a", light(1, 9, 10)).unwrap();
        assert!(matches!(response.decision, AdmissionDecision::Admitted(_)));
    }

    #[test]
    fn guard_fires_degrade_with_hysteresis_and_recover() {
        let mut service = AdmissionService::new();
        let watchdog = WatchdogConfig {
            guard: Duration::from_secs(5),
            trip_threshold: 3,
            recovery_threshold: 4,
            degraded_deadline: Duration::from_millis(50),
        };
        service.set_watchdog(Some(watchdog));
        // Rate 1000/1000 guard fires: every request trips.
        service.set_fault_plan(FaultPlan::from_seed(2, 0, 1000, 0));
        for trip in 0..3u32 {
            let response = service.admit("a", light(4, 9, 10)).unwrap();
            assert_eq!(response.analysis.verdict, Verdict::Unknown, "trip {trip}");
            assert_eq!(response.decision, AdmissionDecision::Undetermined);
        }
        assert!(service.is_degraded(), "3 consecutive trips shed load");
        assert_eq!(service.guard_trips(), 3);
        service.take_fault_plan();
        // Clean requests rebuild the healthy streak and restore the mode.
        for _ in 0..4 {
            service.admit("a", light(1, 50, 100)).unwrap();
        }
        assert!(!service.is_degraded(), "4 clean requests recover");
        assert_eq!(
            service.stat("a").unwrap().components,
            4,
            "degraded mode still admits decisively cheap systems"
        );
    }

    #[test]
    fn journal_round_trip_recovers_committed_state() {
        let dir =
            std::env::temp_dir().join(format!("edf-serve-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.journal");
        let _ = std::fs::remove_file(&path);

        let (stat_a, stat_b, evicted) = {
            let mut service = AdmissionService::recover(&path).unwrap();
            service.admit("a", light(4, 9, 10)).unwrap();
            service.admit("a", light(3, 18, 20)).unwrap();
            let AdmissionDecision::Admitted(id) =
                service.admit("b", light(2, 6, 8)).unwrap().decision
            else {
                panic!("expected admission");
            };
            service.admit("b", light(9, 9, 10)).unwrap_err_or_rejected();
            service.evict("b", id).unwrap();
            service
                .set_mode(SlaMode::Budgeted {
                    deadline: Duration::from_millis(10),
                })
                .unwrap();
            (service.stat("a").unwrap(), service.stat("b").unwrap(), id)
        };

        let mut recovered = AdmissionService::recover(&path).unwrap();
        assert_eq!(recovered.stat("a").unwrap(), stat_a);
        assert_eq!(recovered.stat("b").unwrap(), stat_b);
        assert_eq!(
            recovered.mode(),
            SlaMode::Budgeted {
                deadline: Duration::from_millis(10)
            }
        );
        // The id allocator never reuses a pre-crash id.
        let AdmissionDecision::Admitted(fresh) =
            recovered.admit("b", light(1, 6, 8)).unwrap().decision
        else {
            panic!("expected admission");
        };
        assert!(fresh > evicted, "recovered allocator is past all old ids");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_compaction_preserves_recovery() {
        let dir =
            std::env::temp_dir().join(format!("edf-serve-snapshot-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.journal");
        let _ = std::fs::remove_file(&path);

        let (stat, bytes_before, bytes_after) = {
            let mut service = AdmissionService::recover(&path).unwrap();
            // Churn: admissions and evictions bloat the log relative to
            // the final state.
            for round in 0..8u64 {
                let AdmissionDecision::Admitted(id) =
                    service.admit("a", light(1, 40, 100)).unwrap().decision
                else {
                    panic!("expected admission");
                };
                if round % 2 == 0 {
                    service.evict("a", id).unwrap();
                }
            }
            let bytes_before = std::fs::metadata(&path).unwrap().len();
            service.snapshot().unwrap();
            let bytes_after = std::fs::metadata(&path).unwrap().len();
            (service.stat("a").unwrap(), bytes_before, bytes_after)
        };
        assert!(
            bytes_after < bytes_before,
            "compaction shrinks a churned log ({bytes_after} vs {bytes_before})"
        );
        let mut recovered = AdmissionService::recover(&path).unwrap();
        assert_eq!(recovered.stat("a").unwrap(), stat);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_and_snapshot_require_a_journal() {
        let mut service = AdmissionService::new();
        assert_eq!(service.sync(), Err(RequestError::NoJournal));
        assert_eq!(service.snapshot(), Err(RequestError::NoJournal));
    }

    /// Test-only sugar: some admissions in journal tests may land either
    /// way depending on mode; this helper accepts any outcome.
    trait AnyOutcome {
        fn unwrap_err_or_rejected(self);
    }

    impl AnyOutcome for Result<AdmissionResponse, RequestError> {
        fn unwrap_err_or_rejected(self) {
            if let Ok(response) = self {
                assert_ne!(
                    response.decision,
                    AdmissionDecision::Undetermined,
                    "exact mode decides"
                );
            }
        }
    }
}
