//! End-to-end benchmark of the `edf-serve` admission service and of the
//! paper's §5 sweep, with per-layer attribution from a traced run.
//!
//! ```text
//! e2ebench --serve <edf-serve binary> --work-dir <dir>
//!          --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `e2ebench/run.sh` builds both programs and supplies the first two
//! flags.  The last line of standard output is the result object; the line
//! before it (`RECORD …`) carries the host descriptor, seed, sample counts,
//! raw shares and the determinism digest.

mod check;
mod client;
mod gen;
mod service;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use client::ServerSpec;
use stats::{json_string, Metrics};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 9] = [
    "ops_per_s",
    "p50_us",
    "p90_us",
    "max_rate_rps",
    "slo_met_share",
    "ok_share",
    "decided_share",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// a layer is not on the workload's path).
const PER_LAYER: [(&str, &str); 44] = [
    ("serve.protocol.calls", "count"),
    ("serve.protocol.busy_us", "us"),
    ("serve.protocol.reply_bytes", "bytes"),
    ("transport.queue_us.p99", "us"),
    ("serve.journal.appends", "count"),
    ("serve.journal.bytes", "bytes"),
    ("serve.journal.syncs", "count"),
    ("serve.journal.busy_us", "us"),
    ("serve.journal.recover_s", "s"),
    ("serve.service.calls", "count"),
    ("serve.service.self_us", "us"),
    ("serve.health.budget_exhaustions", "count"),
    ("serve.health.guard_trips", "count"),
    ("serve.health.degraded", "count"),
    ("core.incremental.edits", "count"),
    ("core.incremental.busy_us", "us"),
    ("core.workload.prepare.calls", "count"),
    ("core.workload.prepare.busy_us", "us"),
    ("core.tests.all_approximated.calls", "count"),
    ("core.tests.all_approximated.busy_us", "us"),
    ("core.tests.all_approximated.iterations", "count"),
    ("core.tests.processor_demand.calls", "count"),
    ("core.tests.processor_demand.busy_us", "us"),
    ("core.tests.processor_demand.iterations", "count"),
    ("core.tests.qpa.calls", "count"),
    ("core.tests.qpa.busy_us", "us"),
    ("core.tests.qpa.iterations", "count"),
    ("core.tests.dynamic_error.calls", "count"),
    ("core.tests.dynamic_error.busy_us", "us"),
    ("core.tests.dynamic_error.iterations", "count"),
    ("core.tests.devi.calls", "count"),
    ("core.tests.devi.busy_us", "us"),
    ("core.tests.devi.iterations", "count"),
    ("core.tests.devi_accepted_cost_ratio", "ratio"),
    ("core.budget.units_spent", "units"),
    ("core.analysis.free_verdict_share", "share"),
    ("gen.late_us.p99", "us"),
    ("serve.us_gap.closed_loop_share", "share"),
    ("serve.us_gap.backlogged_share", "share"),
    ("trace.binary_us_per_op", "us"),
    ("trace.unattributed_us_per_op", "us"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

const WORKLOADS: [&str; 4] = ["light_mixed", "heavy_whatif", "budget_shed", "paper_sweep"];

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Extra `key: value` pairs for the RECORD line (values already JSON).
    pub record: Vec<(String, String)>,
    /// Failure examples, printed to standard error.
    pub notes: Vec<String>,
}

#[derive(Debug)]
struct Args {
    serve: PathBuf,
    work_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut serve, mut work_dir, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve" => serve = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        serve: serve.ok_or("--serve is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    // Keep git from searching for a repository above the checkout.
    let here = std::env::current_dir().ok()?;
    let output = std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here))
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// (steal, total) jiffies of all CPUs so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// nproc, CPU model, rustc version and commit, as JSON pairs.
fn host_descriptor() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_output("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), json_string(&cpu)),
        ("rustc".into(), json_string(&rustc)),
        ("commit".into(), json_string(&commit)),
    ]
}

/// Stream length of a service workload at a run length of 10 s.
fn stream_requests(workload: &str) -> usize {
    match workload {
        "light_mixed" => 50_000,
        "heavy_whatif" => 1_500,
        _ => 2_000,
    }
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&args.work_dir)?;
    let spans_out = args
        .work_dir
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if args.workload == "paper_sweep" {
        return if args.trace {
            sweep::traced(args.seed, args.seconds, &spans_out)
        } else {
            Ok(sweep::run(args.seed, args.seconds))
        };
    }
    let requests = (stream_requests(&args.workload) as f64 * args.seconds / 10.0).ceil() as usize;
    let scenario = match args.workload.as_str() {
        "light_mixed" => gen::light_mixed(args.seed, requests),
        "heavy_whatif" => gen::heavy_whatif(args.seed, requests),
        _ => gen::budget_shed(args.seed, requests),
    };
    let spec = ServerSpec {
        binary: args.serve.clone(),
        flags: scenario.shape.flags.clone(),
        preload: args
            .work_dir
            .join(format!("{}-preload.jrnl", args.workload)),
        journal: args.work_dir.join(format!("{}-run.jrnl", args.workload)),
    };
    scenario.write_journal(&spec.preload)?;
    if args.trace {
        service::traced(&scenario, &spec, args.seconds, args.seed, &spans_out)
    } else {
        service::run(&scenario, &spec, args.seconds, args.seed)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("e2ebench: {problem}");
            return ExitCode::FAILURE;
        }
    };
    let ticks_before = cpu_ticks();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("e2ebench: {error}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("e2ebench: failure: {note}");
    }

    // Every declared metric, in declared order; layers a workload does not
    // reach read 0.
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&name| (name, "")).collect()
    };
    let mut metrics = Metrics::default();
    let mut finite = true;
    for (name, unit) in declared {
        let found = outcome.metrics.0.iter().find(|m| m.name == name);
        let (value, unit) = found.map_or((0.0, unit), |m| (m.value, m.unit));
        finite &= value.is_finite();
        println!("{name:<40} {value:>16.6} {unit}");
        metrics.put(name, value, unit);
    }
    let correct = outcome.failed == 0 && finite;

    let mut record = vec![
        ("workload".to_owned(), json_string(&args.workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), args.trace.to_string()),
    ];
    record.extend(host_descriptor());
    // The share of CPU time the hypervisor gave to other guests during the
    // run: figures from a run with a high share are the host's, not the
    // program's.
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        record.push(("host_steal_share".into(), share.to_string()));
    }
    record.extend(outcome.record);
    let body: Vec<String> = record
        .iter()
        .map(|(key, value)| format!("{}: {value}", json_string(key)))
        .collect();
    println!("RECORD {{{}}}", body.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
