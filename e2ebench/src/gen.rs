//! Seeded workload generation: the service streams (tenant preloads plus
//! request lines) and the paper-sweep population.  Everything here is a
//! pure function of the seed and the run length, so two runs with one seed
//! send the program byte-identical inputs.

use std::path::Path;

use edf_analysis::tests::QpaTest;
use edf_analysis::workload::DemandComponent;
use edf_analysis::{FeasibilityTest, PreparedWorkload};
use edf_gen::{PeriodDistribution, TaskSetConfig};
use edf_model::{TaskSet, Time};
use edf_serve::journal::{Journal, JournalRecord};

use crate::stats::Ladder;

/// splitmix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform integer in `lo..=hi`.
    pub fn log_range(&mut self, lo: u64, hi: u64) -> u64 {
        let value = self
            .uniform((lo as f64).ln(), (hi as f64).ln())
            .exp()
            .round() as u64;
        value.clamp(lo, hi)
    }

    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }
}

/// The heavy workloads' tenant draw: rounds in which every tenant gets
/// one request, each round in a seeded order, so every seed sends each
/// tenant the same share of the stream.  Request cost grows with tenant
/// size (200–1000 components), so latency percentiles fall between the
/// tenants' modes, and an independent draw per request moved the p50 by
/// a tenth from seed to seed with the shares.
#[derive(Debug, Clone)]
struct TenantRounds {
    order: Vec<usize>,
    next: usize,
}

impl TenantRounds {
    fn new(tenants: usize) -> Self {
        TenantRounds {
            order: (0..tenants).collect(),
            next: tenants,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            for last in (1..self.order.len()).rev() {
                self.order.swap(last, rng.index(last + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// One periodic component: cost, relative deadline, period (ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comp {
    pub cost: u64,
    pub deadline: u64,
    pub period: u64,
}

impl Comp {
    pub fn demand(self) -> DemandComponent {
        DemandComponent::periodic(
            Time::new(self.cost),
            Time::new(self.deadline),
            Time::new(self.period),
        )
    }

    pub fn utilization(self) -> f64 {
        self.cost as f64 / self.period as f64
    }

    /// A component of utilisation about `u` with a period drawn
    /// log-uniformly from `periods` and a deadline between the cost and the
    /// period (`gap` is the largest share of `period - cost` cut off).
    fn draw(rng: &mut Rng, u: f64, periods: (u64, u64), gap: f64) -> Comp {
        let period = rng.log_range(periods.0, periods.1);
        let cost = ((u * period as f64).round() as u64).clamp(1, period);
        let slack = (period - cost) as f64 * rng.uniform(0.0, gap);
        Comp {
            cost,
            deadline: period - slack.round() as u64,
            period,
        }
    }
}

/// One request line of a service stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Admit { tenant: usize, comp: Comp },
    WhatIf { tenant: usize, comp: Comp },
    Evict { tenant: usize, id: u64 },
    Stat { tenant: usize },
    Sync,
    ModeUnits(u64),
}

impl Op {
    pub fn line(&self) -> String {
        match *self {
            Op::Admit { tenant, comp } => format!(
                "ADMIT {} {} {} {}",
                tenant_name(tenant),
                comp.cost,
                comp.deadline,
                comp.period
            ),
            Op::WhatIf { tenant, comp } => format!(
                "WHATIF {} {} {} {}",
                tenant_name(tenant),
                comp.cost,
                comp.deadline,
                comp.period
            ),
            Op::Evict { tenant, id } => format!("EVICT {} {id}", tenant_name(tenant)),
            Op::Stat { tenant } => format!("STAT {}", tenant_name(tenant)),
            Op::Sync => "SYNC".to_owned(),
            Op::ModeUnits(units) => format!("MODE units {units}"),
        }
    }
}

pub fn tenant_name(index: usize) -> String {
    format!("t{index:03}")
}

/// The committed `(id, component)` list of every tenant.
pub type Tenants = Vec<Vec<(u64, Comp)>>;

/// Exact feasibility of a component list, decided by QPA — a different
/// algorithm from the service's all-approximated test, so it serves as the
/// reference check of the service's verdicts.
pub fn qpa_feasible<'a>(components: impl Iterator<Item = &'a Comp>) -> Option<bool> {
    let prepared = PreparedWorkload::from_components(components.map(|c| c.demand()).collect());
    let verdict = QpaTest::new().analyze_prepared(&prepared).verdict;
    verdict.is_decisive().then(|| verdict.is_feasible())
}

/// How a service workload is served and judged.
#[derive(Debug, Clone)]
pub struct ServiceShape {
    /// Extra `edf-serve` flags (the journal flag is added per spawn).
    pub flags: Vec<String>,
    /// Open-loop rate the latency metrics are measured at.
    pub nominal_rps: f64,
    /// Latency limit on p90, in microseconds.
    pub limit_us: f64,
    pub ladder: Ladder,
}

/// A seeded service workload: tenant preload (written to the journal the
/// server recovers from) and the request stream.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub preload: Tenants,
    pub ops: Vec<Op>,
    pub shape: ServiceShape,
    /// Whether every request runs the exact test (no budget), so every
    /// verdict is decisive and the reference check covers all of them.
    pub exact: bool,
}

impl Scenario {
    /// Writes the preload as a fresh journal at `path`.
    pub fn write_journal(&self, path: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let (mut journal, _) = Journal::open(path)?;
        for (index, committed) in self.preload.iter().enumerate() {
            let tenant = tenant_name(index);
            journal.append(&JournalRecord::Tenant {
                tenant: tenant.clone(),
            })?;
            for &(id, comp) in committed {
                journal.append(&JournalRecord::Admit {
                    tenant: tenant.clone(),
                    id,
                    component: comp.demand(),
                })?;
            }
        }
        journal.sync()
    }
}

/// Assigns ids `0..` to the preloaded components in tenant order, as the
/// journal records them.
fn number(preload: Vec<Vec<Comp>>) -> (Tenants, u64) {
    let mut next = 0u64;
    let tenants = preload
        .into_iter()
        .map(|comps| {
            comps
                .into_iter()
                .map(|comp| {
                    next += 1;
                    (next - 1, comp)
                })
                .collect()
        })
        .collect();
    (tenants, next)
}

fn utilization(committed: &[(u64, Comp)]) -> f64 {
    committed.iter().map(|(_, c)| c.utilization()).sum()
}

/// Of `choices` random tenants, the one `better` prefers.
fn pick_tenant(
    rng: &mut Rng,
    tenants: &Tenants,
    choices: usize,
    better: impl Fn(f64, f64) -> bool,
) -> usize {
    let mut best = rng.index(tenants.len());
    for _ in 1..choices {
        let other = rng.index(tenants.len());
        if better(utilization(&tenants[other]), utilization(&tenants[best])) {
            best = other;
        }
    }
    best
}

/// `light_mixed`: 200 tenants of at most 16 small periodic components, a
/// 45/35/10/10 ADMIT/WHATIF/EVICT/STAT draw (about 34/35/21/10 sent, see
/// below) and a `SYNC` after every 512 writes (an fsync costs 0.1–5 ms on
/// a virtual disk; more often, disk noise would become the workload's
/// main cost).  Decisions are predicted with QPA while generating, so
/// every EVICT names an id that is live when it arrives.
pub fn light_mixed(seed: u64, ops: usize) -> Scenario {
    const TENANTS: usize = 200;
    const MAX_COMPONENTS: usize = 16;
    const SYNC_EVERY: usize = 512;
    // Probes are shrunk so the edited utilisation stays at or below 0.95:
    // nearer U = 1 the exact test walks thousands of intervals, and a few
    // such requests would dominate a workload meant to measure everything
    // but the analysis.  An ADMIT whose tenant has no such headroom left
    // (or holds 16 components) becomes an EVICT on that tenant.
    const EDITED_U_CAP: f64 = 0.95;
    let periods = (50, 1_000);
    let mut rng = Rng::new(seed);
    let preload: Vec<Vec<Comp>> = (0..TENANTS)
        .map(|_| {
            let count = rng.range(4, 10) as usize;
            (0..count)
                .map(|_| {
                    let u = rng.uniform(0.02, 0.08);
                    Comp::draw(&mut rng, u, periods, 0.5)
                })
                .collect()
        })
        .collect();
    let (preload, mut next_id) = number(preload);
    let mut state = preload.clone();
    let headroom = |committed: &[(u64, Comp)]| EDITED_U_CAP - utilization(committed);
    let probe = |rng: &mut Rng, room: f64| {
        let u = rng.uniform(0.02, 0.12).min(room.max(0.01));
        Comp::draw(rng, u, periods, 0.9)
    };
    let evict = |rng: &mut Rng, state: &mut Tenants, tenant: usize| {
        let index = rng.index(state[tenant].len());
        let (id, _) = state[tenant].remove(index);
        Op::Evict { tenant, id }
    };
    let mut stream = Vec::with_capacity(ops + ops / SYNC_EVERY);
    let mut writes = 0usize;
    while stream.len() < ops {
        let roll = rng.range(0, 99);
        let op = if roll < 45 {
            let tenant = pick_tenant(&mut rng, &state, 3, |a, b| a < b);
            let room = headroom(&state[tenant]);
            if room < 0.02 || state[tenant].len() >= MAX_COMPONENTS {
                evict(&mut rng, &mut state, tenant)
            } else {
                let comp = probe(&mut rng, room);
                let fits = qpa_feasible(state[tenant].iter().map(|(_, c)| c).chain([&comp]));
                if fits == Some(true) {
                    state[tenant].push((next_id, comp));
                    next_id += 1;
                }
                Op::Admit { tenant, comp }
            }
        } else if roll < 80 {
            let tenant = rng.index(TENANTS);
            let comp = probe(&mut rng, headroom(&state[tenant]));
            Op::WhatIf { tenant, comp }
        } else if roll < 90 {
            let tenant = pick_tenant(&mut rng, &state, 3, |a, b| a > b);
            if state[tenant].is_empty() {
                Op::Stat { tenant }
            } else {
                evict(&mut rng, &mut state, tenant)
            }
        } else {
            Op::Stat {
                tenant: rng.index(TENANTS),
            }
        };
        if matches!(op, Op::Admit { .. } | Op::Evict { .. }) {
            writes += 1;
        }
        stream.push(op);
        if writes == SYNC_EVERY {
            writes = 0;
            stream.push(Op::Sync);
        }
    }
    Scenario {
        preload,
        ops: stream,
        shape: ServiceShape {
            flags: vec!["--work-rate".into(), "100".into()],
            nominal_rps: 20_000.0,
            // As on the heavy workloads: the hypervisor of a shared host
            // preempts a vCPU for 10–30 ms now and then, and a 10 ms
            // limit measured those preemptions.
            limit_us: 50_000.0,
            ladder: Ladder {
                low: 5_000.0,
                factor: 1.06,
                rungs: 72,
            },
        },
        exact: true,
    }
}

/// Seeds of the two heavy tenant fleets.  The fleet is fixed and `--seed`
/// draws the traffic: with only eight tenants, which tenants a seed drew
/// moved throughput by half between seeds, while the traffic over a fixed
/// fleet averages out within a run.
const HEAVY_FLEET: u64 = 0x4845_4156_5946;
const SHED_FLEET: u64 = 0x5348_4544_4653;

/// Where each heavy tenant's period ratio sits between 10 and 10³ (as a
/// share of the exponent range).
const RATIO_EXPONENTS: [f64; 8] = [1.0, 0.5, 0.0, 0.75, 0.25, 1.0, 0.125, 0.625];

/// Heavy tenants: `count` feasible systems of 200–1000 components (deadline
/// gap 5 %) at 88–93 % utilisation with period ratios of 10 … 10³ (the
/// Fig. 9 regime).  Sizes, utilisations and ratios are stratified over the
/// tenants so every seed gets the same spread of tenant difficulty.
/// Periods start at 10⁶ ticks so that rounding costs to whole ticks
/// cannot inflate the utilisation of a 1000-component set.
fn heavy_tenants(rng: &mut Rng, count: usize) -> Vec<Vec<Comp>> {
    (0..count)
        .map(|index| {
            let share = index as f64 / (count - 1) as f64;
            let size = 200 + (800.0 * share) as usize + rng.range(0, 40) as usize;
            // Period ratios 10 … 10³, in an order uncorrelated with size.
            let ratio = RATIO_EXPONENTS[index % RATIO_EXPONENTS.len()];
            let ratio = 10f64.powf(1.0 + 2.0 * ratio).round() as u64;
            let mut target = 0.88 + 0.05 * share;
            loop {
                let set = TaskSetConfig::new()
                    .task_count(size..=size)
                    .fixed_utilization(target)
                    .periods(PeriodDistribution::RatioControlled {
                        min: 1_000_000,
                        ratio,
                    })
                    .average_gap(TENANT_GAP)
                    .seed(rng.next_u64())
                    .generate();
                let comps = comps_of(&set);
                if qpa_feasible(comps.iter()) == Some(true) {
                    break comps;
                }
                target -= 0.002;
            }
        })
        .collect()
}

fn comps_of(set: &TaskSet) -> Vec<Comp> {
    set.iter()
        .map(|task| Comp {
            cost: task.wcet().as_u64(),
            deadline: task.deadline().as_u64(),
            period: task.period().as_u64(),
        })
        .collect()
}

/// Utilisation of the components heavy-tenant WHATIFs ask about, and of
/// those ADMIT adds: the latter are as small as the tenants' own, so that
/// ADMIT and EVICT churn leaves the tenants' utilisation where it was.
/// Edited systems thus span 88–95 %: the exact test's effort grows like
/// 1 / (1 − U), and closer to 1 a handful of requests per run held most
/// of its time, so throughput moved by a quarter from seed to seed
/// (`paper_sweep` covers 95–99 %).
const WHATIF_U: (f64, f64) = (0.002, 0.02);
const CHURN_U: (f64, f64) = (0.0005, 0.003);
/// Deadline gaps: heavy tenants' average gap, and the largest gap of the
/// components sent to them.
const TENANT_GAP: f64 = 0.05;
const PROBE_GAP: f64 = 0.1;

/// A component for a heavy tenant with utilisation in `range`.
fn heavy_probe(rng: &mut Rng, range: (f64, f64)) -> Comp {
    let u = rng.uniform(range.0, range.1);
    Comp::draw(rng, u, (1_000_000, 1_000_000_000), PROBE_GAP)
}

/// `heavy_whatif`: eight heavy tenants, 90 % WHATIF with 4 % ADMIT,
/// 4 % EVICT and 2 % STAT, exact mode, no `SYNC`.  As in `light_mixed`,
/// admissions are predicted with QPA so every EVICT names a live id.
/// EVICTs remove components the stream admitted (a WHATIF is sent
/// instead while a tenant has none): evicting preloaded components, of
/// up to 0.45 % each, moved a tenant's utilisation by a percent or two
/// over a run, and since the exact test's effort grows like 1 / (1 − U),
/// latency then followed the seed by a tenth.
pub fn heavy_whatif(seed: u64, ops: usize) -> Scenario {
    const TENANTS: usize = 8;
    let (preload, mut next_id) = number(heavy_tenants(&mut Rng::new(HEAVY_FLEET), TENANTS));
    let mut rng = Rng::new(seed ^ 0x4845_4156_5900);
    let mut state = preload.clone();
    let mut admitted: Vec<Vec<u64>> = vec![Vec::new(); TENANTS];
    let mut rounds = TenantRounds::new(TENANTS);
    let stream = (0..ops)
        .map(|_| {
            let tenant = rounds.draw(&mut rng);
            let roll = rng.range(0, 99);
            if roll < 4 {
                let comp = heavy_probe(&mut rng, CHURN_U);
                let fits = qpa_feasible(state[tenant].iter().map(|(_, c)| c).chain([&comp]));
                if fits == Some(true) {
                    state[tenant].push((next_id, comp));
                    admitted[tenant].push(next_id);
                    next_id += 1;
                }
                Op::Admit { tenant, comp }
            } else if (4..8).contains(&roll) && !admitted[tenant].is_empty() {
                let pick = rng.index(admitted[tenant].len());
                let id = admitted[tenant].swap_remove(pick);
                state[tenant].retain(|&(live, _)| live != id);
                Op::Evict { tenant, id }
            } else if (8..10).contains(&roll) {
                Op::Stat { tenant }
            } else {
                Op::WhatIf {
                    tenant,
                    comp: heavy_probe(&mut rng, WHATIF_U),
                }
            }
        })
        .collect();
    Scenario {
        preload,
        ops: stream,
        shape: ServiceShape {
            flags: vec!["--work-rate".into(), "100".into()],
            nominal_rps: 1_600.0,
            limit_us: 50_000.0,
            ladder: Ladder {
                low: 100.0,
                factor: 1.06,
                rungs: 72,
            },
        },
        exact: true,
    }
}

/// Work-unit allowances `budget_shed` alternates between: the tight one
/// binds before the watchdog guard (SLA exhaustion, no trip), the loose
/// one lets the guard bind (trips, degrade hysteresis).
const SHED_UNITS: [u64; 2] = [200, 3_000];
/// `--watchdog` guard in microseconds, and the pinned work rate that makes
/// it `WATCHDOG_US * SHED_WORK_RATE` units.  The pinned rate is well below
/// the calibrated one (about 10 units/µs on a 2-vCPU Xeon), so the unit
/// allowance always binds before the guard's wall-clock backstop and
/// shedding repeats exactly.
const WATCHDOG_US: u64 = 500;
const SHED_WORK_RATE: u64 = 1;

/// `budget_shed`: the heavy shape from a different seed stream, under
/// `MODE units` (switching allowance every 256 requests) with a watchdog
/// and a pinned work rate, so shedding is deterministic.  EVICTs name
/// preloaded ids only (each once): which admissions succeed depends on
/// the budget, so the generator does not predict them.
pub fn budget_shed(seed: u64, ops: usize) -> Scenario {
    const TENANTS: usize = 8;
    const SWITCH_EVERY: usize = 256;
    let (preload, _) = number(heavy_tenants(&mut Rng::new(SHED_FLEET), TENANTS));
    let mut rng = Rng::new(seed ^ 0x5348_4544_0000);
    let mut evictable = preload.clone();
    let mut rounds = TenantRounds::new(TENANTS);
    let mut stream = Vec::with_capacity(ops + ops / SWITCH_EVERY + 1);
    for index in 0..ops {
        if index % SWITCH_EVERY == 0 {
            stream.push(Op::ModeUnits(SHED_UNITS[(index / SWITCH_EVERY) % 2]));
        }
        let tenant = rounds.draw(&mut rng);
        let roll = rng.range(0, 99);
        stream.push(if roll < 4 {
            Op::Admit {
                tenant,
                comp: heavy_probe(&mut rng, CHURN_U),
            }
        } else if roll < 8 && !evictable[tenant].is_empty() {
            let index = rng.index(evictable[tenant].len());
            let (id, _) = evictable[tenant].remove(index);
            Op::Evict { tenant, id }
        } else if roll < 10 {
            Op::Stat { tenant }
        } else {
            Op::WhatIf {
                tenant,
                comp: heavy_probe(&mut rng, WHATIF_U),
            }
        });
    }
    Scenario {
        preload,
        ops: stream,
        shape: ServiceShape {
            flags: vec![
                "--watchdog".into(),
                WATCHDOG_US.to_string(),
                "--work-rate".into(),
                SHED_WORK_RATE.to_string(),
            ],
            nominal_rps: 2_000.0,
            limit_us: 50_000.0,
            ladder: Ladder {
                low: 200.0,
                factor: 1.06,
                rungs: 72,
            },
        },
        exact: false,
    }
}

/// The paper-sweep population: a Fig. 8 utilisation sweep (70–99 %) and a
/// Fig. 9 period-ratio sweep (10 … 10⁴), generated with `edf-gen`, in a
/// seeded random order so that every prefix mixes all cells.
pub fn sweep_population(seed: u64, per_util: usize, per_ratio: usize) -> Vec<TaskSet> {
    let fig8 = TaskSetConfig::new()
        .task_count(5..=50)
        .average_gap(0.3)
        .seed(seed);
    let fig9 = TaskSetConfig::new()
        .task_count(5..=50)
        .utilization(0.90..=0.99)
        .average_gap(0.3)
        .seed(seed ^ 0x9);
    let mut population: Vec<TaskSet> = edf_gen::utilization_sweep(&fig8, 70..=99, per_util)
        .into_iter()
        .flat_map(|point| point.task_sets)
        .collect();
    population.extend(
        edf_gen::period_ratio_sweep(&fig9, 100, &[10, 100, 1_000, 10_000], per_ratio)
            .into_iter()
            .flat_map(|point| point.task_sets),
    );
    let mut rng = Rng::new(seed ^ 0x5EED);
    for index in (1..population.len()).rev() {
        population.swap(index, rng.index(index + 1));
    }
    population
}
