//! `paper_sweep`: the paper's §5 population analysed in-process on one
//! thread by Devi's test, processor demand, QPA, the dynamic-error test
//! and the all-approximated test, each set prepared once and analysed
//! with one reused scratch.

use std::time::{Duration, Instant};

use edf_analysis::batch::BoxedTest;
use edf_analysis::tests::{
    AllApproximatedTest, DeviTest, DynamicErrorTest, ProcessorDemandTest, QpaTest,
};
use edf_analysis::{Analysis, AnalysisScratch, PreparedWorkload};
use edf_model::TaskSet;

use crate::client::peak_rss_mb;
use crate::gen::sweep_population;
use crate::stats::{
    fnv1a, host_speed, median, quantile, windowed, Ladder, Metrics, Staircase, FNV_OFFSET,
    LATENCY_WINDOW, STAIRCASE_PROBES,
};
use crate::trace::Tracer;
use crate::Outcome;

/// Task sets per utilisation point (70–99 %, 30 points) and per period
/// ratio (10, 10², 10³, 10⁴), at a run length of 10 s.
const PER_UTIL: usize = 80;
const PER_RATIO: usize = 300;
/// Latency limit on p90 for the open-loop runs, and their nominal rate.
const LIMIT_US: f64 = 50_000.0;
const NOMINAL_RPS: f64 = 1_000.0;
const LADDER: Ladder = Ladder {
    low: 100.0,
    factor: 1.06,
    rungs: 96,
};

/// Metric-name stems of the five tests, in the order they run.
const NAMES: [&str; 5] = [
    "devi",
    "processor_demand",
    "qpa",
    "dynamic_error",
    "all_approximated",
];

fn tests() -> Vec<BoxedTest> {
    vec![
        Box::new(DeviTest::new()),
        Box::new(ProcessorDemandTest::new()),
        Box::new(QpaTest::new()),
        Box::new(DynamicErrorTest::new()),
        Box::new(AllApproximatedTest::new()),
    ]
}

/// Whether the five analyses of one set agree: the four exact tests reach
/// one decisive verdict, and Devi's test accepts only feasible sets.
fn consistent(analyses: &[Analysis]) -> bool {
    let exact = &analyses[1..];
    let first = exact[0].verdict;
    first.is_decisive()
        && exact.iter().all(|a| a.verdict == first)
        && (!analyses[0].verdict.is_feasible() || first.is_feasible())
}

fn analyse(tests: &[BoxedTest], set: &TaskSet, scratch: &mut AnalysisScratch) -> Vec<Analysis> {
    let prepared = PreparedWorkload::new(set);
    tests
        .iter()
        .map(|test| test.analyze_prepared_with(&prepared, scratch))
        .collect()
}

fn population(seed: u64, seconds: f64) -> Vec<TaskSet> {
    let scale = (seconds / 10.0).max(0.1);
    sweep_population(
        seed,
        ((PER_UTIL as f64 * scale).ceil() as usize).max(1),
        ((PER_RATIO as f64 * scale).ceil() as usize).max(1),
    )
}

/// Open loop in-process: set `i` is due at `i / rate`; sets are analysed
/// in order, and each latency runs from due time to the end of its
/// analysis.  Returns latencies and, for each set that found the thread
/// idle, how late it started after its due time.  The thread spins until
/// a set is due rather than sleeping: a sleeping thread's vCPU halts, and
/// on a shared host waking it took milliseconds often enough to fail
/// probes at rates the thread could sustain.
fn open_loop(sets: &[TaskSet], first: usize, count: usize, rate: f64) -> (Vec<f64>, Vec<f64>) {
    let tests = tests();
    let mut scratch = AnalysisScratch::new();
    let mut latencies = Vec::with_capacity(count);
    let mut late = Vec::with_capacity(count);
    let t0 = Instant::now();
    for index in 0..count {
        let due = Duration::from_secs_f64(index as f64 / rate);
        if t0.elapsed() < due {
            while t0.elapsed() < due {
                std::hint::spin_loop();
            }
            late.push(t0.elapsed().saturating_sub(due).as_secs_f64() * 1e6);
        }
        let set = &sets[(first + index) % sets.len()];
        std::hint::black_box(analyse(&tests, set, &mut scratch));
        latencies.push((t0.elapsed().saturating_sub(due)).as_secs_f64() * 1e6);
    }
    (latencies, late)
}

/// The untraced run.  As on the service workloads, the repeated phases
/// (passes, open-loop runs) are spread over the run and reduced by
/// medians.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..25 {
        let start = Instant::now();
        sets = population(seed, seconds);
        setups.push(start.elapsed().as_secs_f64());
    }

    let tests = tests();
    let mut scratch = AnalysisScratch::new();
    let mut digest = FNV_OFFSET;
    let mut failed = 0usize;
    let mut attempted = 0usize;
    let mut per_set: Vec<Vec<f64>> = Vec::new();
    let mut throughput = Vec::new();
    // One backlogged pass over the whole population; the first also
    // checks the tests against each other and feeds the digest.
    let mut speed = Vec::new();
    let mut pass = |first: bool| {
        speed.push(host_speed());
        let mut times = Vec::with_capacity(sets.len());
        for set in &sets {
            let begin = Instant::now();
            let analyses = analyse(&tests, set, &mut scratch);
            times.push(begin.elapsed().as_secs_f64() * 1e6);
            if first {
                failed += usize::from(!consistent(&analyses));
                for analysis in &analyses {
                    let fields = format!("{} {};", analysis.verdict, analysis.iterations);
                    digest = fnv1a(digest, fields.as_bytes());
                }
            }
        }
        attempted += sets.len();
        // Sets per second in each of 32 windows of the pass: as on the
        // service workloads, a slow spell of the host lowers the windows
        // it falls in, and the median over windows stays put.  Short
        // windows also keep the few sets that cost milliseconds (processor
        // demand at ratio 10⁴), whose number moves with the seed, from
        // setting the figure.
        let size = (times.len() / 32).max(1);
        let rates: Vec<f64> = times
            .chunks_exact(size)
            .map(|window| window.len() as f64 / (window.iter().sum::<f64>() / 1e6))
            .collect();
        per_set.push(times);
        rates
    };

    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut open_loop = |first: usize, count: usize, rate: f64| {
        let (these, slept) = open_loop(&sets, first, count, rate);
        late.extend(slept);
        these
    };
    let nominal = ((NOMINAL_RPS * seconds * 0.1) as usize).max(1);

    throughput.extend(pass(true));
    latencies.push(open_loop(0, nominal, NOMINAL_RPS));
    throughput.extend(pass(false));
    // The rate staircase's probes, in four stages spread over the rest of
    // the run between the remaining passes and open-loop runs.  Each probe
    // takes the sets after the last probe's, so that together they cover
    // the population: probes of its first sets only judged how costly
    // those happened to be for the seed.
    let probe_secs = seconds * 0.02;
    let mut probed = 0usize;
    let mut staircase = Staircase::new(LADDER, median(&throughput));
    for stage in 0..4 {
        for _ in 0..STAIRCASE_PROBES / 4 {
            let rate = staircase.rate();
            let count = ((rate * probe_secs) as usize).max(1);
            let these = open_loop(probed, count, rate);
            probed += count;
            let tail = quantile(&these[these.len() - these.len().min(LATENCY_WINDOW)..], 0.5);
            let p90 = windowed(&[these], 0.9);
            staircase.record(p90 <= LIMIT_US && tail <= LIMIT_US, p90);
        }
        if stage < 3 {
            throughput.extend(pass(false));
        }
        if stage < 2 {
            latencies.push(open_loop(0, nominal, NOMINAL_RPS));
        }
    }
    let max_rate = staircase.estimate();
    let probes = staircase.to_json();
    attempted += probed + latencies.iter().map(Vec::len).sum::<usize>();

    let sent: usize = latencies.iter().map(Vec::len).sum();
    // A median over the open-loop runs, as on the service workloads.
    let slo_miss_share = median(
        &latencies
            .iter()
            .map(|run| run.iter().filter(|&&l| l > LIMIT_US).count() as f64 / run.len() as f64)
            .collect::<Vec<_>>(),
    );
    let error_share = failed as f64 / attempted as f64;
    let per_pass = |q: f64| {
        median(
            &per_set
                .iter()
                .map(|times| quantile(times, q))
                .collect::<Vec<_>>(),
        )
    };
    let mut metrics = Metrics::default();
    metrics.put("ops_per_s", median(&throughput), "1/s");
    metrics.put("p50_us", per_pass(0.5), "us");
    metrics.put("p90_us", per_pass(0.9), "us");
    metrics.put("max_rate_rps", max_rate, "1/s");
    metrics.put("slo_met_share", 1.0 - slo_miss_share, "share");
    metrics.put("ok_share", 1.0 - error_share, "share");
    // The exact tests always decide; an inconsistent set counts as
    // undecided as well as failed.
    metrics.put(
        "decided_share",
        1.0 - failed as f64 / sets.len() as f64,
        "share",
    );
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("peak_rss_mb", peak_rss_mb("/proc/self/status"), "MiB");
    let record = vec![
        ("error_share".to_owned(), error_share.to_string()),
        (
            "undetermined_share".to_owned(),
            (failed as f64 / sets.len() as f64).to_string(),
        ),
        ("slo_miss_share".to_owned(), slo_miss_share.to_string()),
        ("digest".to_owned(), format!("\"{digest:016x}\"")),
        (
            "gen.late_us.p99".to_owned(),
            quantile(&late, 0.99).to_string(),
        ),
        ("p99_us".to_owned(), per_pass(0.99).to_string()),
        ("latency_limit_us".to_owned(), LIMIT_US.to_string()),
        ("nominal_rps".to_owned(), NOMINAL_RPS.to_string()),
        ("population_sets".to_owned(), sets.len().to_string()),
        ("samples.ops_per_s".to_owned(), throughput.len().to_string()),
        (
            "samples.per_set".to_owned(),
            format!("\"{} passes of {}\"", per_set.len(), sets.len()),
        ),
        ("samples.slo".to_owned(), sent.to_string()),
        ("samples.setup_s".to_owned(), setups.len().to_string()),
        ("host_speed".to_owned(), median(&speed).to_string()),
        ("ladder_rate_p90_pass".to_owned(), probes),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        record,
        notes: Vec::new(),
    }
}

/// The traced run: one untraced and one traced pass over the population,
/// with a span per set and one per preparation and per test.
pub fn traced(seed: u64, seconds: f64, spans_out: &std::path::Path) -> std::io::Result<Outcome> {
    let sets = population(seed, seconds);
    let tests = tests();
    let mut scratch = AnalysisScratch::new();
    let start = Instant::now();
    for set in &sets {
        std::hint::black_box(analyse(&tests, set, &mut scratch));
    }
    let untraced_s = start.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let mut iterations = [0u64; 5];
    let mut failed = 0usize;
    // Devi-accepted sets: (all-approximated time, Devi time) in ns.
    let (mut accepted_aa, mut accepted_devi) = (0.0, 0.0);
    let start = Instant::now();
    for (index, set) in sets.iter().enumerate() {
        let request = index as u64;
        let root = tracer.start("sweep.set", None, request);
        let (prepared, _) = tracer.span("core.workload.prepare", Some(root), request, || {
            PreparedWorkload::new(set)
        });
        let mut analyses = Vec::with_capacity(tests.len());
        let mut spans = Vec::with_capacity(tests.len());
        for (test, name) in tests.iter().zip(SPAN_NAMES) {
            let (analysis, id) = tracer.span(name, Some(root), request, || {
                test.analyze_prepared_with(&prepared, &mut scratch)
            });
            analyses.push(analysis);
            spans.push(id);
        }
        tracer.end(root);
        for (total, analysis) in iterations.iter_mut().zip(&analyses) {
            *total += analysis.iterations;
        }
        if analyses[0].verdict.is_feasible() {
            let duration = |id: usize| (tracer.spans[id].end_ns - tracer.spans[id].start_ns) as f64;
            accepted_devi += duration(spans[0]);
            accepted_aa += duration(spans[4]);
        }
        if !consistent(&analyses) {
            failed += 1;
        }
    }
    let traced_s = start.elapsed().as_secs_f64();

    let times = tracer.self_times();
    let self_us = |name: &str| times.get(name).map_or(0.0, |t| t.1);
    let calls = |name: &str| times.get(name).map_or(0, |t| t.0) as f64;
    let mut m = Metrics::default();
    m.put(
        "core.workload.prepare.calls",
        calls("core.workload.prepare"),
        "count",
    );
    m.put(
        "core.workload.prepare.busy_us",
        self_us("core.workload.prepare"),
        "us",
    );
    for ((stem, span), iterations) in NAMES.iter().zip(SPAN_NAMES).zip(iterations) {
        m.put(&format!("core.tests.{stem}.calls"), calls(span), "count");
        m.put(&format!("core.tests.{stem}.busy_us"), self_us(span), "us");
        m.put(
            &format!("core.tests.{stem}.iterations"),
            iterations as f64,
            "count",
        );
    }
    m.put(
        "core.tests.devi_accepted_cost_ratio",
        if accepted_devi > 0.0 {
            accepted_aa / accepted_devi
        } else {
            0.0
        },
        "ratio",
    );
    let unattributed = self_us("sweep.set");
    m.put(
        "trace.unattributed_us_per_op",
        unattributed / sets.len() as f64,
        "us",
    );
    m.put(
        "trace.unattributed_share",
        unattributed / (tracer.total_us("sweep.set")),
        "share",
    );
    m.put("trace.overhead_share", 1.0 - untraced_s / traced_s, "share");
    m.put("trace.spans", tracer.spans.len() as f64, "count");
    tracer.write_tsv(spans_out)?;
    Ok(Outcome {
        metrics: m,
        attempted: sets.len() * 2,
        failed,
        record: vec![("population_sets".to_owned(), sets.len().to_string())],
        notes: Vec::new(),
    })
}

const SPAN_NAMES: [&str; 5] = [
    "core.tests.devi",
    "core.tests.processor_demand",
    "core.tests.qpa",
    "core.tests.dynamic_error",
    "core.tests.all_approximated",
];
