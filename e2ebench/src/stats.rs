//! Small statistics and output helpers.

/// The `q` quantile of `values` by nearest rank (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency windows: a percentile of an open-loop run is the median of its
/// windows' percentiles, so a stall (a slow fsync, a descheduled vCPU, a
/// rare slow analysis) moves few windows, not the result.  200 requests
/// leave 20 beyond the p90.
pub const LATENCY_WINDOW: usize = 200;

/// The median, over consecutive windows of [`LATENCY_WINDOW`] samples of
/// each run, of each window's `q` quantile (a run shorter than a window
/// counts as one).
pub fn windowed(runs: &[Vec<f64>], q: f64) -> f64 {
    let per_window: Vec<f64> = runs
        .iter()
        .flat_map(|run| {
            run.chunks(LATENCY_WINDOW)
                .filter(|window| window.len() == LATENCY_WINDOW || run.len() < LATENCY_WINDOW)
        })
        .map(|window| quantile(window, q))
        .collect();
    median(&per_window)
}

/// A fixed geometric rate ladder: `rungs` rates from `low`, each `factor`
/// above the last.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub low: f64,
    pub factor: f64,
    pub rungs: usize,
}

impl Ladder {
    pub fn rung(&self, index: usize) -> f64 {
        self.low * self.factor.powi(index as i32)
    }
}

/// An up-down staircase over a [`Ladder`] for the rate at which a probe
/// passes half the time: it starts at the rung nearest a first estimate
/// and moves one rung up after each pass and one down after each fail.
/// The callers spread its [`STAIRCASE_PROBES`] probes over their run.
///
/// A bisection run in one stretch judged each rung once, so one slow
/// spell of a shared host (the server's speed moves by a quarter between
/// seconds, for seconds) put its answer three rungs off; spread out, a
/// spell fails a probe or two, and the estimate averages over many
/// probes near the boundary.
#[derive(Debug, Clone)]
pub struct Staircase {
    ladder: Ladder,
    rung: i64,
    /// (rate, judged latency, passed) of each probe so far.
    probes: Vec<(f64, f64, bool)>,
}

/// Probes of one [`Staircase`], and how many of the first are left out
/// of its estimate while it walks from the first estimate to the
/// boundary.
pub const STAIRCASE_PROBES: usize = 16;
const STAIRCASE_SKIPPED: usize = 4;

impl Staircase {
    pub fn new(ladder: Ladder, start: f64) -> Staircase {
        let nearest = ((start / ladder.low).ln() / ladder.factor.ln()).round() as i64;
        Staircase {
            ladder,
            rung: nearest.clamp(0, ladder.rungs as i64 - 1),
            probes: Vec::new(),
        }
    }

    /// The rate to probe next.
    pub fn rate(&self) -> f64 {
        self.ladder.rung(self.rung as usize)
    }

    /// Records the verdict (and the latency it judged) of a probe at
    /// [`Staircase::rate`] and moves one rung.
    pub fn record(&mut self, passed: bool, latency: f64) {
        self.probes.push((self.rate(), latency, passed));
        let step = if passed { 1 } else { -1 };
        self.rung = (self.rung + step).clamp(0, self.ladder.rungs as i64 - 1);
    }

    /// The geometric mean of the rates probed after the first
    /// [`STAIRCASE_SKIPPED`].
    pub fn estimate(&self) -> f64 {
        let kept = &self.probes[STAIRCASE_SKIPPED.min(self.probes.len() - 1)..];
        let log_sum: f64 = kept.iter().map(|(rate, _, _)| rate.ln()).sum();
        (log_sum / kept.len() as f64).exp()
    }

    /// The probes as a JSON list of `[rate, latency, passed]`.
    pub fn to_json(&self) -> String {
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|(rate, latency, passed)| format!("[{rate:.1}, {latency:.1}, {passed}]"))
            .collect();
        format!("[{}]", probes.join(", "))
    }
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The host's current speed on a fixed integer loop (FNV-1a over a 32 KiB
/// buffer, about 5 ms), in bytes per microsecond.  A shared host runs at
/// different speeds for minutes at a time; this measures which phase a
/// run saw, independently of the program under test.
pub fn host_speed() -> f64 {
    const ROUNDS: usize = 150;
    let buffer: Vec<u8> = (0..32 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let start = std::time::Instant::now();
    let mut hash = FNV_OFFSET;
    for _ in 0..ROUNDS {
        hash = fnv1a(hash, std::hint::black_box(&buffer));
    }
    std::hint::black_box(hash);
    (ROUNDS * buffer.len()) as f64 / (start.elapsed().as_secs_f64() * 1e6)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, written as the result line's `metrics`
/// object.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON, with all its digits (non-finite values, which
/// JSON cannot carry, become 0 and are caught by the caller's checks).
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_owned();
    }
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
            ch => out.push(ch),
        }
    }
    out.push('"');
    out
}
