//! # `edf-feasibility`
//!
//! Fast exact feasibility analysis for uniprocessor real-time systems under
//! preemptive EDF scheduling — a Rust implementation of
//!
//! > K. Albers, F. Slomka. *Efficient Feasibility Analysis for Real-Time
//! > Systems with EDF Scheduling.* Design, Automation and Test in Europe
//! > (DATE), 2005.
//!
//! This facade crate re-exports the workspace members under one roof:
//!
//! * [`model`] (`edf-model`) — the workload model zoo: sporadic tasks,
//!   Gresser event streams, real-time-calculus arrival curves and
//!   offset-based transactions, plus the literature example task sets;
//! * [`analysis`] (`edf-analysis`) — the feasibility tests (Liu & Layland,
//!   density, Devi, processor demand, QPA, `SuperPos(x)`, and the paper's
//!   two new exact tests) behind the [`Workload`] demand abstraction: every
//!   test consumes a [`PreparedWorkload`] — the cached canonical form of a
//!   [`TaskSet`], a set of [`EventStreamTask`]s or a [`MixedSystem`] — so
//!   sporadic, event-stream and mixed systems all run through the same
//!   exact analyses, and per-workload state (feasibility bounds, exact
//!   utilization, deadline order) is computed once per suite rather than
//!   once per test;
//! * [`analysis::kernel`] — the columnar demand kernel behind every hot
//!   demand query: structure-of-arrays columns with precomputed period
//!   reciprocals, a flat loser-tree deadline merge, and the reusable
//!   [`AnalysisScratch`] arena (the scalar path survives only as the
//!   equivalence oracle [`PreparedWorkload::scalar_reference`]);
//! * [`analysis::batch`] — the parallel batch front end:
//!   [`batch::analyze_many`] fans a workload
//!   batch out across the CPU cores with one shared preparation and one
//!   scratch arena per worker (the experiment harness and benchmarks run
//!   on it — zero per-workload transient allocations after warm-up);
//! * [`analysis::incremental`] — the incremental sensitivity engine:
//!   [`ScaledView`] probes WCET perturbations of one prepared workload
//!   without re-preparation (in-place cost rewrites, shared deadline
//!   order, refreshed §4.3 analysis horizon), behind the
//!   breakdown-scaling and WCET-slack searches and the batch
//!   [`sensitivity_sweep`];
//! * [`analysis::transactions`] — exact critical-instant-candidate
//!   analysis of offset-transaction systems;
//! * [`serve`] (`edf-serve`) — the online admission-control service:
//!   thousands of tenants, each a [`PreparedWorkload`] behind an
//!   [`EditView`], answering admit / evict / what-if requests through
//!   delta re-analysis (with an anytime budgeted mode that answers an
//!   honest `Unknown` when its per-request deadline fires, and batched
//!   entry points fanning independent tenants across the cores);
//! * [`sim`] (`edf-sim`) — a discrete-event EDF / fixed-priority scheduler
//!   simulator used as an independent oracle;
//! * [`gen`] (`edf-gen`) — reproducible random task-set generation
//!   (UUniFast, period and deadline-gap control);
//! * [`experiments`] (`edf-experiments`) — the harness regenerating every
//!   figure and table of the paper's evaluation.
//!
//! The most common types are re-exported at the crate root.
//!
//! # Quick start
//!
//! ```
//! use edf_feasibility::{AllApproximatedTest, FeasibilityTest, Task, TaskSet, Time, Verdict};
//!
//! # fn main() -> Result<(), edf_feasibility::TaskError> {
//! let task_set = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(2), Time::new(7), Time::new(10))?.named("control loop"),
//!     Task::new(Time::new(3), Time::new(9), Time::new(25))?.named("telemetry"),
//!     Task::new(Time::new(10), Time::new(60), Time::new(80))?.named("logging"),
//! ]);
//!
//! let analysis = AllApproximatedTest::new().analyze(&task_set);
//! assert_eq!(analysis.verdict, Verdict::Feasible);
//! # Ok(())
//! # }
//! ```
//!
//! # Event streams and batches
//!
//! ```
//! use edf_feasibility::analysis::batch;
//! use edf_feasibility::{
//!     all_tests, EventStream, EventStreamTask, FeasibilityTest, MixedSystem, PreparedWorkload,
//!     QpaTest, TaskSet, Time, Verdict,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A bursty interrupt source, analyzed by the exact QPA test through the
//! // common workload path.
//! let burst = EventStreamTask::new(
//!     EventStream::bursty(3, Time::new(5), Time::new(100)),
//!     Time::new(4),
//!     Time::new(20),
//! )?;
//! let system = MixedSystem::new(TaskSet::new(), vec![burst]);
//! let prepared = PreparedWorkload::new(&system);
//! assert_eq!(QpaTest::new().analyze_prepared(&prepared).verdict, Verdict::Feasible);
//!
//! // Batch analysis: prepare once per workload, fan out across cores.
//! let workloads = vec![system.clone(), system];
//! let results = batch::analyze_many(&workloads, &all_tests());
//! assert_eq!(results.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use edf_analysis as analysis;
pub use edf_experiments as experiments;
pub use edf_gen as gen;
pub use edf_model as model;
pub use edf_serve as serve;
pub use edf_sim as sim;

pub use edf_analysis::batch;
pub use edf_analysis::budget::{Progress, ProgressPhase, WorkBudget};
pub use edf_analysis::candidates::{
    self, CandidateAnalysis, CandidateView, EngineConfig, EngineStats, MixedRadixGray,
};
pub use edf_analysis::exhaustive::{exhaustive_check, exhaustive_check_workload};
pub use edf_analysis::incremental::{EditView, ScaledView, WorkloadView};
pub use edf_analysis::kernel::{AnalysisScratch, DemandKernel};
pub use edf_analysis::sensitivity::{
    breakdown_scaling, breakdown_scaling_exact, breakdown_scaling_prepared,
    breakdown_scaling_workload, sensitivity_report, sensitivity_sweep, wcet_slack,
    wcet_slack_prepared, wcet_slack_workload, BreakdownScaling, SensitivityReport,
};
pub use edf_analysis::tests::{
    AllApproximatedTest, BoundSelection, DensityTest, DeviTest, DynamicErrorTest, LevelGrowth,
    LiuLaylandTest, ProcessorDemandTest, QpaTest, RevisionOrder, SuperpositionTest,
};
pub use edf_analysis::transactions::{
    analyze_transaction_system, candidate_workloads, exhaustive_transaction_check, CombinationIter,
    ProductTooLarge,
};
pub use edf_analysis::workload::{DemandComponent, DemandEvent, DemandEventIter};
pub use edf_analysis::{
    all_tests, registered_tests, Analysis, BoxedTest, DemandOverload, FeasibilityTest, MixedSystem,
    PreparedWorkload, Verdict, Workload,
};
pub use edf_gen::{ArrivalCurveConfig, PeriodDistribution, TaskSetConfig, TransactionConfig};
pub use edf_model::{
    AffineSegment, ArrivalCurve, ArrivalCurveTask, CurveDecomposition, EventStream,
    EventStreamTask, Task, TaskBuilder, TaskError, TaskSet, Time, Transaction, TransactionPart,
    TransactionSystem,
};
pub use edf_serve::{
    AdmissionDecision, AdmissionService, RequestError, ServiceLimits, SlaMode, WatchdogConfig,
};
pub use edf_sim::{simulate_edf_feasibility, OracleVerdict, SchedulingPolicy, Simulator};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_compose() {
        let ts = TaskSet::from_tasks(vec![Task::from_ticks(1, 5, 10).unwrap()]);
        assert!(ProcessorDemandTest::new().analyze(&ts).is_feasible());
        assert!(simulate_edf_feasibility(&ts).is_schedulable());
        // The suite size derives from the registry, not a magic number.
        assert_eq!(all_tests().len(), registered_tests().len());
    }

    #[test]
    fn workload_path_composes_through_the_facade() {
        let burst = EventStreamTask::new(
            EventStream::bursty(2, Time::new(3), Time::new(50)),
            Time::new(2),
            Time::new(10),
        )
        .unwrap();
        let system = MixedSystem::new(
            TaskSet::from_tasks(vec![Task::from_ticks(1, 5, 20).unwrap()]),
            vec![burst],
        );
        let prepared = PreparedWorkload::new(&system);
        let exact = AllApproximatedTest::new().analyze_prepared(&prepared);
        assert_eq!(exact.verdict, Verdict::Feasible);
        assert_eq!(
            exhaustive_check_workload(&system).verdict,
            Verdict::Feasible
        );
    }
}
