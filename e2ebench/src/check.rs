//! The correctness gate of the service workloads.
//!
//! The benchmark mirrors each tenant's committed list from the replies
//! (`ADMITTED id=`, `EVICTED id=`), checks that every request got exactly
//! one reply of the right kind and no `ERR`, and re-decides decisive
//! ADMIT/WHATIF verdicts with QPA on the edited system (a seeded sample
//! when the tenants are large).  This is a stop-gap reference: QPA shares
//! the kernel's prepared demand with the service's test, so it is not the
//! independent checker ROADMAP item 4 asks for.

use crate::client::deterministic_part;
use crate::gen::{qpa_feasible, Comp, Op, Rng, Scenario};
use crate::stats::{fnv1a, FNV_OFFSET};

/// What the gate found in one replay.
#[derive(Debug, Default, Clone)]
pub struct Checked {
    /// Requests whose reply was missing, an `ERR`, of the wrong kind, or
    /// disagreed with the mirror or the reference check.
    pub failed: usize,
    /// ADMIT and WHATIF requests, and those answered `UNDETERMINED`.
    pub decisions: usize,
    pub undetermined: usize,
    /// ADMIT/WHATIF rejections answered by the free `U > 1` check
    /// (`iters=0`).
    pub free_rejections: usize,
    /// Decisive verdicts re-decided with QPA.
    pub reference_checked: usize,
    /// Hash of every reply without its `us=` field, then the final HEALTH.
    pub digest: u64,
    /// First few failures, for the report.
    pub examples: Vec<String>,
}

impl Checked {
    fn fail(&mut self, index: usize, detail: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(format!("request {index}: {detail}"));
        }
    }
}

/// Checks `replies` (one per op, in order) and the final `health` line.
/// Each decisive verdict is re-decided with probability `sample` (drawn
/// from `seed`).
pub fn check(
    scenario: &Scenario,
    replies: &[String],
    health: &str,
    sample: f64,
    seed: u64,
) -> Checked {
    let mut out = Checked::default();
    let mut mirror = scenario.preload.clone();
    let mut rng = Rng::new(seed ^ 0xC4EC_0000);
    let mut digest = FNV_OFFSET;
    for (index, op) in scenario.ops.iter().enumerate() {
        let Some(reply) = replies.get(index) else {
            out.fail(index, "no reply".into());
            continue;
        };
        digest = fnv1a(digest, deterministic_part(reply).as_bytes());
        digest = fnv1a(digest, b"\n");
        if reply.starts_with("ERR") {
            out.fail(index, reply.clone());
            continue;
        }
        match *op {
            Op::Admit { tenant, comp } | Op::WhatIf { tenant, comp } => {
                let admit = matches!(op, Op::Admit { .. });
                out.decisions += 1;
                let Some(decision) = parse_decision(reply, admit) else {
                    out.fail(index, format!("bad reply {reply:?} to {}", op.line()));
                    continue;
                };
                if reply.contains("verdict=infeasible iters=0 ") {
                    out.free_rejections += 1;
                }
                match decision {
                    None => {
                        out.undetermined += 1;
                        if scenario.exact {
                            out.fail(index, format!("exact mode answered {reply:?}"));
                        }
                    }
                    Some(feasible) => {
                        if rng.unit() < sample {
                            out.reference_checked += 1;
                            let reference =
                                qpa_feasible(mirror[tenant].iter().map(|(_, c)| c).chain([&comp]));
                            if reference != Some(feasible) {
                                out.fail(
                                    index,
                                    format!(
                                        "{reply:?} but QPA says {reference:?} for {}",
                                        op.line()
                                    ),
                                );
                            }
                        }
                    }
                }
                if let Some(id) = admitted_id(reply) {
                    mirror[tenant].push((id, comp));
                }
            }
            Op::Evict { tenant, id } => {
                let position = mirror[tenant].iter().position(|&(live, _)| live == id);
                match position {
                    Some(position) if *reply == format!("EVICTED id={id}") => {
                        mirror[tenant].remove(position);
                    }
                    _ => out.fail(index, format!("{reply:?} to {}", op.line())),
                }
            }
            Op::Stat { tenant } => {
                if !stat_matches(reply, &mirror[tenant]) {
                    out.fail(
                        index,
                        format!("{reply:?} but the mirror holds {:?}", mirror[tenant].len()),
                    );
                }
            }
            Op::Sync => {
                if reply != "SYNCED" {
                    out.fail(index, reply.clone());
                }
            }
            Op::ModeUnits(units) => {
                if *reply != format!("MODE units={units}") {
                    out.fail(index, reply.clone());
                }
            }
        }
    }
    if !health.starts_with("HEALTH ") {
        out.fail(
            scenario.ops.len(),
            format!("final HEALTH answered {health:?}"),
        );
    }
    out.digest = fnv1a(digest, health.as_bytes());
    out
}

/// `Some(Some(true))` admitted/admit, `Some(Some(false))` rejected,
/// `Some(None)` undetermined, `None` not a decision reply.
fn parse_decision(reply: &str, admit: bool) -> Option<Option<bool>> {
    let mut words = reply.split_whitespace();
    let head = words.next()?;
    let decision = if admit {
        match head {
            "ADMITTED" => Some(true),
            "REJECTED" => Some(false),
            "UNDETERMINED" => None,
            _ => return None,
        }
    } else {
        if head != "WHATIF" {
            return None;
        }
        match words.next()? {
            "admit" => Some(true),
            "reject" => Some(false),
            "unknown" => None,
            _ => return None,
        }
    };
    Some(decision)
}

fn admitted_id(reply: &str) -> Option<u64> {
    reply
        .strip_prefix("ADMITTED id=")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn stat_matches(reply: &str, committed: &[(u64, Comp)]) -> bool {
    let field = |key: &str| {
        reply
            .split_whitespace()
            .find_map(|word| word.strip_prefix(key))
            .and_then(|value| value.parse::<f64>().ok())
    };
    let utilization: f64 = committed.iter().map(|(_, c)| c.utilization()).sum();
    reply.starts_with("STAT ")
        && field("components=") == Some(committed.len() as f64)
        && field("utilization=").is_some_and(|u| (u - utilization).abs() < 1e-5)
}

/// A numeric field `key=<n>` of a HEALTH reply (`degraded` reads as 0/1).
pub fn health_field(health: &str, key: &str) -> f64 {
    health
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        .map_or(f64::NAN, |value| match value {
            "true" => 1.0,
            "false" => 0.0,
            number => number.parse().unwrap_or(f64::NAN),
        })
}
