//! The three service workloads: untraced end-to-end runs against the
//! `edf-serve` binary, and the traced run that splits a request's cost
//! over the service's layers.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use edf_analysis::tests::AllApproximatedTest;
use edf_analysis::{AnalysisScratch, EditView, FeasibilityTest, PreparedWorkload, WorkloadView};
use edf_serve::journal::{Journal, JournalRecord};
use edf_serve::protocol::{classify_line, dispatch, read_raw_line, LineClass};
use edf_serve::{AdmissionResponse, AdmissionService, RequestError, SlaMode, WatchdogConfig};

use crate::check::{check, health_field};
use crate::client::{
    backlogged, closed_loop, deterministic_part, reply_us, Replay, Server, ServerSpec,
};
use crate::gen::{tenant_name, Op, Scenario, ServiceShape};
use crate::stats::{
    host_speed, json_string, median, quantile, windowed, Metrics, Staircase, LATENCY_WINDOW,
    STAIRCASE_PROBES,
};
use crate::trace::Tracer;
use crate::Outcome;

/// Share of decisive verdicts re-decided with QPA: all of them on small
/// tenants, a seeded sample on heavy ones (QPA over 1000 components costs
/// about a millisecond).
fn reference_sample(scenario: &Scenario) -> f64 {
    let largest = scenario.preload.iter().map(Vec::len).max().unwrap_or(0);
    if largest <= 32 {
        1.0
    } else {
        (400.0 / scenario.ops.len() as f64).min(1.0)
    }
}

/// Rounds of [`run`], backlogged replays in each round, and the windows
/// each replay's throughput is taken over.
const ROUNDS: usize = 4;
const REPLAYS_PER_ROUND: usize = 4;
const WINDOWS_PER_REPLAY: usize = 8;

/// Replies per second in each of [`WINDOWS_PER_REPLAY`] consecutive
/// windows of a backlogged replay (reply times in µs from its start).  As
/// with latency windows, a slow spell of the host then lowers the
/// windows it falls in, and the median over windows stays put.
fn window_rates(recv_us: &[f64]) -> Vec<f64> {
    let size = (recv_us.len() / WINDOWS_PER_REPLAY).max(1);
    let mut from = 0.0;
    recv_us
        .chunks_exact(size)
        .map(|window| {
            let to = window[window.len() - 1];
            let rate = window.len() as f64 / ((to - from).max(1.0) / 1e6);
            from = to;
            rate
        })
        .collect()
}

/// Counts `replies` that differ from `expected` (the backlogged replay's
/// deterministic parts) or are missing.
fn differing(replies: &[String], expected: &[String]) -> usize {
    let answered = replies
        .iter()
        .zip(expected)
        .filter(|(got, want)| deterministic_part(got) != want.as_str())
        .count();
    answered + expected.len().saturating_sub(replies.len())
}

/// [`differing`] for a replay, counting an extra reply as one more.
fn mismatches(replay: &Replay, expected: &[String]) -> usize {
    differing(&replay.replies, expected) + usize::from(replay.extra)
}

struct Phases {
    /// [`host_speed`] before each phase.
    speed: Vec<f64>,
    lines: Vec<String>,
    /// Deterministic parts of the first backlogged replay's replies.
    expected: Vec<String>,
    setups: Vec<f64>,
    /// Throughput and peak memory of each backlogged replay.
    throughput: Vec<f64>,
    rss: Vec<f64>,
    /// Whether every closed-loop run had client and server on one CPU.
    one_cpu: bool,
    attempted: usize,
    failed: usize,
}

impl Phases {
    /// A backlogged replay of the first `count` requests; records its
    /// throughput and peak memory.
    fn backlogged(&mut self, spec: &ServerSpec, count: usize) -> io::Result<()> {
        self.speed.push(host_speed());
        let (setup_s, replay) = backlogged(spec, &self.lines[..count])?;
        self.setups.push(setup_s);
        self.attempted += count;
        let differ = mismatches(&replay, &self.expected[..count]);
        if differ > 0 {
            eprintln!("e2ebench: {differ} replies differ between two replays of one stream");
        }
        self.failed += differ;
        self.throughput.extend(window_rates(&replay.recv_us));
        self.rss.push(replay.peak_rss_mb);
        Ok(())
    }

    /// An open-loop run of the first `rate * secs` requests at `rate`.
    fn open_loop(
        &mut self,
        spec: &ServerSpec,
        rate: f64,
        secs: f64,
    ) -> io::Result<(Replay, usize)> {
        self.speed.push(host_speed());
        let count = ((rate * secs) as usize).clamp(1, self.lines.len());
        let server = Server::start(spec, None)?;
        self.setups.push(server.setup_s);
        let replay = server.open_loop(&self.lines[..count], rate)?;
        self.attempted += count;
        let bad = mismatches(&replay, &self.expected[..count]);
        self.failed += bad;
        Ok((replay, bad))
    }

    /// An open-loop run at `rate` for `secs`: whether its windowed p90
    /// met the latency limit with no growing backlog (the last window
    /// still answers half its requests within the limit), and that p90.
    fn rate_probe(
        &mut self,
        spec: &ServerSpec,
        shape: &ServiceShape,
        rate: f64,
        secs: f64,
    ) -> io::Result<(bool, f64)> {
        let (replay, bad) = self.open_loop(spec, rate, secs)?;
        let these = replay.latencies_us();
        let tail = quantile(&these[these.len() - these.len().min(LATENCY_WINDOW)..], 0.5);
        let p90 = windowed(&[these], 0.9);
        let passed = bad == 0 && p90 <= shape.limit_us && tail <= shape.limit_us;
        Ok((passed, p90))
    }

    /// A closed-loop run of the first `count` requests, one in flight;
    /// returns each request's round trip in µs.
    fn closed_loop(&mut self, spec: &ServerSpec, count: usize) -> io::Result<Vec<f64>> {
        self.speed.push(host_speed());
        let count = count.clamp(1, self.lines.len());
        let server = Server::start(spec, None)?;
        self.setups.push(server.setup_s);
        let (rtts, replies, shared) = closed_loop(server, &self.lines[..count])?;
        self.one_cpu &= shared;
        self.attempted += count;
        self.failed += differing(&replies, &self.expected[..count]);
        Ok(rtts)
    }
}

/// The untraced run: backlogged throughput, closed-loop latency, the SLO
/// share of open-loop runs at the nominal rate, the rate ladder, set-up
/// time and memory.  Slow spells of a shared host last seconds, so the
/// repeated phases are spread over the run and reduced by medians: one
/// spell then moves one sample.
///
/// The latency percentiles are round trips with one request in flight,
/// client and server on one CPU (see [`closed_loop`]), not open-loop
/// latency from due time: on a shared VM the latter measures the host.
/// A vCPU descheduled for a few milliseconds queues every request due
/// meanwhile: at half load, three open-loop runs of one `heavy_whatif`
/// run read p90 2.1–4.3 ms while the closed-loop runs between them read
/// 0.59–0.66 ms.  Open-loop percentiles stay in the RECORD line, and the
/// nominal-rate runs still give `slo_met_share`.
pub fn run(scenario: &Scenario, spec: &ServerSpec, seconds: f64, seed: u64) -> io::Result<Outcome> {
    let lines: Vec<String> = scenario.ops.iter().map(Op::line).collect();
    let shape = &scenario.shape;

    // First backlogged replay, of the whole stream: the correctness gate,
    // the digest, and the replies every later replay must repeat.
    let (setup_s, first) = backlogged(spec, &lines)?;
    let checked = check(
        scenario,
        &first.replies,
        &first.health,
        reference_sample(scenario),
        seed,
    );
    let mut phases = Phases {
        speed: Vec::new(),
        expected: first
            .replies
            .iter()
            .map(|r| deterministic_part(r).to_owned())
            .collect(),
        lines,
        setups: vec![setup_s],
        throughput: Vec::new(),
        rss: vec![first.peak_rss_mb],
        one_cpu: true,
        attempted: scenario.ops.len(),
        failed: checked.failed + usize::from(first.extra),
    };
    let total = phases.lines.len();
    let quarter = (total / 4).max(1);

    let mut latencies = Vec::new();
    let mut round_trips = Vec::new();
    let mut late = Vec::new();
    // Per open-loop run: a hypervisor preemption of tens of milliseconds
    // fails every request due during it, so the share is a median over
    // runs spread over the run.
    let mut slo_misses = Vec::new();
    let closed_count = (shape.nominal_rps * seconds * 0.075) as usize;
    let probe_secs = seconds * 0.02;
    let mut staircase: Option<Staircase> = None;
    // One round: backlogged replays of the stream's first quarter (the
    // server's speed moves by a quarter between replays a second apart
    // on a shared host, so throughput is a median over the windows of
    // many short replays), a closed-loop run, an open-loop run at the
    // nominal rate, and a share of the rate staircase's probes, which
    // starts from the first round's throughput.
    let mut round = |phases: &mut Phases| -> io::Result<()> {
        for _ in 0..REPLAYS_PER_ROUND {
            phases.backlogged(spec, quarter)?;
        }
        round_trips.push(phases.closed_loop(spec, closed_count)?);
        let (replay, bad) = phases.open_loop(spec, shape.nominal_rps, seconds * 0.05)?;
        let these = replay.latencies_us();
        let missed = (these.iter().filter(|&&l| l > shape.limit_us).count() + bad).min(these.len());
        slo_misses.push(missed as f64 / these.len() as f64);
        latencies.push(these);
        late.extend(replay.late_us);
        let stairs = staircase
            .get_or_insert_with(|| Staircase::new(shape.ladder, median(&phases.throughput)));
        for _ in 0..STAIRCASE_PROBES / ROUNDS {
            let (passed, p90) = phases.rate_probe(spec, shape, stairs.rate(), probe_secs)?;
            stairs.record(passed, p90);
        }
        Ok(())
    };
    for _ in 0..ROUNDS {
        round(&mut phases)?;
    }
    let staircase = staircase.expect("at least one round");
    let max_rate = staircase.estimate();
    let probes = staircase.to_json();

    let sent: usize = latencies.iter().map(Vec::len).sum();
    let slo_miss_share = median(&slo_misses);
    let pooled: Vec<f64> = latencies.concat();
    let error_share = phases.failed as f64 / phases.attempted as f64;
    let undetermined_share = checked.undetermined as f64 / checked.decisions.max(1) as f64;
    let mut metrics = Metrics::default();
    metrics.put("ops_per_s", median(&phases.throughput), "1/s");
    metrics.put("p50_us", windowed(&round_trips, 0.5), "us");
    metrics.put("p90_us", windowed(&round_trips, 0.9), "us");
    metrics.put("max_rate_rps", max_rate, "1/s");
    metrics.put("slo_met_share", 1.0 - slo_miss_share, "share");
    metrics.put("ok_share", 1.0 - error_share, "share");
    metrics.put("decided_share", 1.0 - undetermined_share, "share");
    metrics.put("setup_s", median(&phases.setups), "s");
    metrics.put("peak_rss_mb", median(&phases.rss), "MiB");

    let record = vec![
        ("error_share".to_owned(), error_share.to_string()),
        (
            "undetermined_share".to_owned(),
            undetermined_share.to_string(),
        ),
        ("slo_miss_share".to_owned(), slo_miss_share.to_string()),
        (
            "free_verdict_share".to_owned(),
            (checked.free_rejections as f64 / checked.decisions.max(1) as f64).to_string(),
        ),
        ("digest".to_owned(), format!("\"{:016x}\"", checked.digest)),
        ("health".to_owned(), json_string(&first.health)),
        (
            "reference_checked".to_owned(),
            checked.reference_checked.to_string(),
        ),
        (
            "gen.late_us.p99".to_owned(),
            quantile(&late, 0.99).to_string(),
        ),
        (
            "p99_us".to_owned(),
            windowed(&round_trips, 0.99).to_string(),
        ),
        (
            "p99_us.pooled".to_owned(),
            quantile(&round_trips.concat(), 0.99).to_string(),
        ),
        (
            "open_loop.p50_us".to_owned(),
            windowed(&latencies, 0.5).to_string(),
        ),
        (
            "open_loop.p90_us".to_owned(),
            windowed(&latencies, 0.9).to_string(),
        ),
        (
            "open_loop.p99_us.pooled".to_owned(),
            quantile(&pooled, 0.99).to_string(),
        ),
        ("latency_limit_us".to_owned(), shape.limit_us.to_string()),
        ("nominal_rps".to_owned(), shape.nominal_rps.to_string()),
        (
            "samples.latency".to_owned(),
            round_trips.concat().len().to_string(),
        ),
        ("samples.open_loop".to_owned(), sent.to_string()),
        ("closed_loop_one_cpu".to_owned(), phases.one_cpu.to_string()),
        (
            "samples.latency_window".to_owned(),
            LATENCY_WINDOW.to_string(),
        ),
        (
            "samples.ops_per_s".to_owned(),
            phases.throughput.len().to_string(),
        ),
        (
            "samples.setup_s".to_owned(),
            phases.setups.len().to_string(),
        ),
        ("host_speed".to_owned(), median(&phases.speed).to_string()),
        ("stream_requests".to_owned(), total.to_string()),
        ("ladder_rate_p90_pass".to_owned(), probes),
    ];
    Ok(Outcome {
        metrics,
        attempted: phases.attempted,
        failed: phases.failed,
        record,
        notes: checked.examples,
    })
}

/// The service a recovered journal gives, configured as the binary is by
/// the scenario's flags.
fn recover_configured(scenario: &Scenario, journal: &Path) -> io::Result<AdmissionService> {
    let mut service = AdmissionService::recover(journal)?;
    for pair in scenario.shape.flags.chunks(2) {
        let value: u64 = pair[1].parse().expect("numeric flag value");
        match pair[0].as_str() {
            "--work-rate" => service.set_work_rate(value),
            "--watchdog" => service.set_watchdog(Some(WatchdogConfig::with_guard(
                Duration::from_micros(value),
            ))),
            other => panic!("flag {other} has no in-process equivalent"),
        }
    }
    Ok(service)
}

fn fresh_journal(spec: &ServerSpec, name: &str) -> io::Result<std::path::PathBuf> {
    let path = spec.journal.with_file_name(name);
    std::fs::copy(&spec.preload, &path)?;
    Ok(path)
}

/// The traced run: binary replays for transport-side numbers and the
/// in-process passes that split the cost by layer.
pub fn traced(
    scenario: &Scenario,
    spec: &ServerSpec,
    seconds: f64,
    seed: u64,
    spans_out: &Path,
) -> io::Result<Outcome> {
    let count = (scenario.ops.len() / 2).max(1);
    let mut prefix = scenario.clone();
    prefix.ops.truncate(count);
    let lines: Vec<String> = prefix.ops.iter().map(Op::line).collect();
    let mut failed = 0usize;
    let mut attempted = 0usize;

    // Binary, backlogged: per-op cost, the replies' us= sum, HEALTH.
    let (_, backlogged) = backlogged(spec, &lines)?;
    attempted += count;
    let checked = check(
        &prefix,
        &backlogged.replies,
        &backlogged.health,
        reference_sample(scenario),
        seed,
    );
    failed += checked.failed + usize::from(backlogged.extra);
    let binary_us_per_op = backlogged.wall_s() * 1e6 / count as f64;
    let us_sum: f64 = backlogged.replies.iter().filter_map(|r| reply_us(r)).sum();
    let expected: Vec<String> = backlogged
        .replies
        .iter()
        .map(|r| deterministic_part(r).to_owned())
        .collect();

    // Binary, open loop at the nominal rate: queueing outside the service.
    let open = ((scenario.shape.nominal_rps * seconds * 0.1) as usize).clamp(1, count);
    let server = Server::start(spec, None)?;
    let replay = server.open_loop(&lines[..open], scenario.shape.nominal_rps)?;
    attempted += open;
    failed += mismatches(&replay, &expected[..open]);
    let queue: Vec<f64> = replay
        .latencies_us()
        .iter()
        .zip(&replay.replies)
        .map(|(latency, reply)| latency - reply_us(reply).unwrap_or(0.0))
        .collect();

    // Binary, closed loop: the share of a client's round trip outside us=.
    let closed = count.min(open);
    let server = Server::start(spec, None)?;
    let (rtts, closed_replies, one_cpu) = closed_loop(server, &lines[..closed])?;
    attempted += closed;
    failed += differing(&closed_replies, &expected[..closed]);
    let closed_us: f64 = closed_replies.iter().filter_map(|r| reply_us(r)).sum();
    let closed_gap = 1.0 - closed_us / rtts.iter().sum::<f64>();

    // Recovery, timed in-process.
    let mut recover_s = Vec::new();
    for _ in 0..3 {
        let path = fresh_journal(spec, "recover.jrnl")?;
        let start = Instant::now();
        let service = AdmissionService::recover(&path)?;
        recover_s.push(start.elapsed().as_secs_f64());
        drop(service);
    }

    // In-process passes over the same requests.
    let input: Vec<u8> = lines
        .iter()
        .flat_map(|l| format!("{l}\n").into_bytes())
        .collect();
    let untraced_s = {
        let mut service = recover_configured(scenario, &fresh_journal(spec, "untraced.jrnl")?)?;
        let mut reader: &[u8] = &input;
        let start = Instant::now();
        while let Some((bytes, truncated)) = read_raw_line(&mut reader)? {
            if let LineClass::Request(request) = classify_line(&bytes, truncated) {
                std::hint::black_box(dispatch(&mut service, &request));
            }
        }
        start.elapsed().as_secs_f64()
    };

    // One traced pass, interleaved request by request so that the three
    // measurements of a request run under the same host conditions: the
    // real path (read, classify, dispatch), a replica service called
    // directly (the service's share of dispatch), and the shadow that
    // splits the service's work into its layers.
    let mut tracer = Tracer::new();
    let mut service = recover_configured(scenario, &fresh_journal(spec, "traced.jrnl")?)?;
    let mut twin = recover_configured(scenario, &fresh_journal(spec, "twin.jrnl")?)?;
    let mut shadow = Shadow::new(scenario, spec, &mut tracer)?;
    let mut reader: &[u8] = &input;
    let mut reply_bytes = 0usize;
    let mut units_spent = 0u64;
    let mut traced_ns = 0u64;
    for (request, op) in prefix.ops.iter().enumerate() {
        let id = request as u64;
        let root = tracer.start("request", None, id);
        let (line, _) = tracer.span("serve.protocol.read", Some(root), id, || {
            read_raw_line(&mut reader).map(|line| line.map(|(bytes, t)| classify_line(&bytes, t)))
        });
        let line = match line? {
            Some(LineClass::Request(line)) => line,
            _ => String::new(),
        };
        let (reply, dispatched) = tracer.span("serve.dispatch", Some(root), id, || {
            dispatch(&mut service, &line)
        });
        tracer.end(root);
        traced_ns += tracer.spans[root].end_ns - tracer.spans[root].start_ns;
        reply_bytes += reply.len() + 1;
        failed += usize::from(deterministic_part(&reply) != expected[request]);

        let (response, served) = tracer.span("serve.service", Some(dispatched), id, || {
            call(&mut twin, op)
        });
        match response {
            Ok(response) => {
                let progress = response.and_then(|r| r.analysis.progress);
                units_spent += progress.map_or(0, |p| p.units_spent);
            }
            Err(_) => failed += 1,
        }
        shadow.apply(&mut tracer, served, id, op, &expected[request])?;
    }
    let traced_s = traced_ns as f64 / 1e9;
    let health = format!(
        "exhaustions={} trips={} degraded={}",
        twin.budget_exhaustions(),
        twin.guard_trips(),
        twin.is_degraded()
    );
    let shadow_mismatch = shadow.mismatches;
    failed += shadow_mismatch;
    attempted += 3 * count;
    let journal_bytes = shadow.journal.len_bytes() - shadow.journal_start;
    let (edits, iterations, appends, syncs) = (
        shadow.edits,
        shadow.iterations,
        shadow.appends,
        shadow.syncs,
    );

    let times = tracer.self_times();
    let self_us = |name: &str| times.get(name).map_or(0.0, |t| t.1);
    let calls = |name: &str| times.get(name).map_or(0, |t| t.0) as f64;
    // Dispatch self time is protocol work: dispatch minus the service.
    let protocol_us = self_us("serve.protocol.read") + self_us("serve.dispatch");
    let journal_us = self_us("serve.journal.append") + self_us("serve.journal.sync");
    let incremental_us = self_us("core.incremental");
    let analysis_us = self_us("core.tests.all_approximated");
    // Budgeted requests run the service's escalation ladder, which has no
    // public counterpart: there the service's self time keeps the
    // analysis (the shadow runs the exact test only on decided requests).
    let service_self_us = if scenario.exact {
        self_us("serve.service")
    } else {
        self_us("serve.service") + analysis_us
    };
    let attributed_per_op = (protocol_us + tracer.total_us("serve.service")) / count as f64;
    let unattributed_us = binary_us_per_op - attributed_per_op;

    let mut m = Metrics::default();
    m.put("serve.protocol.calls", calls("serve.dispatch"), "count");
    m.put("serve.protocol.busy_us", protocol_us, "us");
    m.put("serve.protocol.reply_bytes", reply_bytes as f64, "bytes");
    m.put("transport.queue_us.p99", quantile(&queue, 0.99), "us");
    m.put("serve.journal.appends", appends as f64, "count");
    m.put("serve.journal.bytes", journal_bytes as f64, "bytes");
    m.put("serve.journal.syncs", syncs as f64, "count");
    m.put("serve.journal.busy_us", journal_us, "us");
    m.put("serve.journal.recover_s", median(&recover_s), "s");
    m.put("serve.service.calls", calls("serve.service"), "count");
    m.put("serve.service.self_us", service_self_us, "us");
    m.put(
        "serve.health.budget_exhaustions",
        health_field(&backlogged.health, "budget_exhaustions"),
        "count",
    );
    m.put(
        "serve.health.guard_trips",
        health_field(&backlogged.health, "guard_trips"),
        "count",
    );
    m.put(
        "serve.health.degraded",
        health_field(&backlogged.health, "degraded"),
        "count",
    );
    m.put("core.incremental.edits", edits as f64, "count");
    m.put("core.incremental.busy_us", incremental_us, "us");
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
    m.put(
        "core.tests.all_approximated.calls",
        calls("core.tests.all_approximated"),
        "count",
    );
    m.put("core.tests.all_approximated.busy_us", analysis_us, "us");
    m.put(
        "core.tests.all_approximated.iterations",
        iterations as f64,
        "count",
    );
    m.put("core.budget.units_spent", units_spent as f64, "units");
    m.put(
        "core.analysis.free_verdict_share",
        checked.free_rejections as f64 / checked.decisions.max(1) as f64,
        "share",
    );
    m.put("gen.late_us.p99", quantile(&replay.late_us, 0.99), "us");
    m.put("serve.us_gap.closed_loop_share", closed_gap, "share");
    m.put(
        "serve.us_gap.backlogged_share",
        1.0 - us_sum / (backlogged.wall_s() * 1e6),
        "share",
    );
    m.put("trace.binary_us_per_op", binary_us_per_op, "us");
    m.put("trace.unattributed_us_per_op", unattributed_us, "us");
    m.put(
        "trace.unattributed_share",
        unattributed_us / binary_us_per_op,
        "share",
    );
    m.put("trace.overhead_share", 1.0 - untraced_s / traced_s, "share");
    m.put("trace.spans", tracer.spans.len() as f64, "count");

    tracer.write_tsv(spans_out)?;
    let record = vec![
        ("digest".to_owned(), format!("\"{:016x}\"", checked.digest)),
        ("traced_requests".to_owned(), count.to_string()),
        ("twin_health".to_owned(), format!("\"{health}\"")),
        ("samples.queue_us".to_owned(), queue.len().to_string()),
        ("samples.closed_loop".to_owned(), rtts.len().to_string()),
        ("closed_loop_one_cpu".to_owned(), one_cpu.to_string()),
        (
            "reference_checked".to_owned(),
            checked.reference_checked.to_string(),
        ),
        ("shadow_mismatches".to_owned(), shadow_mismatch.to_string()),
    ];
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        record,
        notes: checked.examples,
    })
}

/// The request as a direct call on a service (no protocol).
fn call(
    service: &mut AdmissionService,
    op: &Op,
) -> Result<Option<AdmissionResponse>, RequestError> {
    let name = match *op {
        Op::Admit { tenant, .. }
        | Op::WhatIf { tenant, .. }
        | Op::Evict { tenant, .. }
        | Op::Stat { tenant } => tenant_name(tenant),
        Op::Sync | Op::ModeUnits(_) => String::new(),
    };
    match *op {
        Op::Admit { comp, .. } => service.admit(&name, comp.demand()).map(Some),
        Op::WhatIf { comp, .. } => service.what_if(&name, comp.demand()).map(Some),
        Op::Evict { id, .. } => service.evict(&name, id).map(|()| None),
        Op::Stat { .. } => Ok(service.stat(&name).and(None)),
        Op::Sync => service.sync().map(|()| None),
        Op::ModeUnits(units) => service
            .set_mode(SlaMode::BudgetedUnits { units })
            .map(|()| None),
    }
}

/// The service's work redone through its layers' public functions: one
/// `EditView` per tenant, the all-approximated test and a journal of its
/// own, following the decisions the binary replied.
struct Shadow {
    views: Vec<EditView>,
    /// Committed ids per tenant, parallel to the views' components.
    committed: Vec<Vec<u64>>,
    journal: Journal,
    journal_start: u64,
    test: AllApproximatedTest,
    scratch: AnalysisScratch,
    /// In exact mode every verdict is compared with the binary's.
    exact: bool,
    edits: u64,
    iterations: u64,
    appends: u64,
    syncs: u64,
    mismatches: usize,
}

impl Shadow {
    fn new(scenario: &Scenario, spec: &ServerSpec, tracer: &mut Tracer) -> io::Result<Shadow> {
        let path = spec.journal.with_file_name("shadow.jrnl");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path)?;
        let mut views = Vec::with_capacity(scenario.preload.len());
        for tenant in &scenario.preload {
            let components = tenant.iter().map(|(_, c)| c.demand()).collect();
            let (prepared, _) = tracer.span("core.workload.prepare", None, u64::MAX, || {
                PreparedWorkload::from_components(components)
            });
            let (view, _) = tracer.span("core.incremental", None, u64::MAX, || {
                EditView::new(&prepared)
            });
            views.push(view);
        }
        Ok(Shadow {
            views,
            committed: scenario
                .preload
                .iter()
                .map(|tenant| tenant.iter().map(|&(id, _)| id).collect())
                .collect(),
            journal_start: journal.len_bytes(),
            journal,
            test: AllApproximatedTest::new(),
            scratch: AnalysisScratch::new(),
            exact: scenario.exact,
            edits: 0,
            iterations: 0,
            appends: 0,
            syncs: 0,
            mismatches: 0,
        })
    }

    fn append(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        request: u64,
        record: &JournalRecord,
    ) -> io::Result<()> {
        let journal = &mut self.journal;
        tracer
            .span("serve.journal.append", Some(parent), request, || {
                journal.append(record)
            })
            .0?;
        self.appends += 1;
        Ok(())
    }

    /// Redoes `op`, whose binary reply (without `us=`) was `reply`.
    fn apply(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        request: u64,
        op: &Op,
        reply: &str,
    ) -> io::Result<()> {
        let under = Some(parent);
        match *op {
            Op::Admit { tenant, comp } | Op::WhatIf { tenant, comp } => {
                let view = &mut self.views[tenant];
                self.edits += 1;
                tracer.span("core.incremental", under, request, || {
                    view.insert_component(comp.demand());
                    view.prepared();
                });
                let decided =
                    !reply.starts_with("UNDETERMINED") && !reply.starts_with("WHATIF unknown");
                // Budgeted requests run the service's escalation ladder,
                // which has no public counterpart: the exact test only
                // checks the verdicts the ladder decided.
                if self.exact || decided {
                    let (test, scratch) = (&self.test, &mut self.scratch);
                    let (analysis, _) =
                        tracer.span("core.tests.all_approximated", under, request, || {
                            test.analyze_prepared_with(view.finalized(), scratch)
                        });
                    self.iterations += analysis.iterations;
                    let said_feasible =
                        reply.starts_with("ADMITTED") || reply.starts_with("WHATIF admit");
                    self.mismatches +=
                        usize::from(decided && analysis.verdict.is_feasible() != said_feasible);
                }
                let admitted = reply
                    .strip_prefix("ADMITTED id=")
                    .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok());
                match admitted {
                    Some(id) => {
                        let record = JournalRecord::Admit {
                            tenant: tenant_name(tenant),
                            id,
                            component: comp.demand(),
                        };
                        self.append(tracer, parent, request, &record)?;
                        let view = &mut self.views[tenant];
                        tracer.span("core.incremental", under, request, || view.commit());
                        self.committed[tenant].push(id);
                    }
                    None => {
                        tracer.span("core.incremental", under, request, || view.revert());
                    }
                }
            }
            Op::Evict { tenant, id } => {
                let Some(index) = self.committed[tenant].iter().position(|&live| live == id) else {
                    self.mismatches += 1;
                    return Ok(());
                };
                let record = JournalRecord::Evict {
                    tenant: tenant_name(tenant),
                    id,
                };
                self.append(tracer, parent, request, &record)?;
                self.committed[tenant].remove(index);
                let view = &mut self.views[tenant];
                self.edits += 1;
                tracer.span("core.incremental", under, request, || {
                    view.remove_component(index);
                    view.commit();
                });
            }
            Op::Stat { tenant } => {
                let view = &mut self.views[tenant];
                tracer.span("core.incremental", under, request, || {
                    std::hint::black_box(view.prepared().utilization());
                });
            }
            Op::Sync => {
                let journal = &mut self.journal;
                tracer
                    .span("serve.journal.sync", under, request, || journal.sync())
                    .0?;
                self.syncs += 1;
            }
            Op::ModeUnits(units) => {
                let record = JournalRecord::Mode(SlaMode::BudgetedUnits { units });
                self.append(tracer, parent, request, &record)?;
            }
        }
        Ok(())
    }
}
