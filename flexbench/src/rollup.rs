//! Per-layer rollup of a drained [`Telemetry`] snapshot.
//!
//! The benchmark adds no instrumentation to the program: every number
//! here comes from spans and counters the program already emits
//! (`flexile.master`, `flexile.subproblems`, `lp.solve` with its
//! `iterations` field, `flexile.bound_gap`, the `lp.*` and `flexile.*`
//! counters) plus the benchmark's own `bench.*` spans around its calls.

use crate::Metrics;
use flexile_obs::{Event, EventKind, Telemetry};
use std::collections::BTreeMap;
use std::time::Duration;

/// One master call of the Benders loop.
pub const MASTER_SPAN: &str = "flexile.master";
/// One iteration's subproblem wave.
pub const WAVE_SPAN: &str = "flexile.subproblems";
/// Spans a pool worker opens around one scenario solve or one batch unit.
pub const SUBPROBLEM_SPANS: [&str; 2] = ["flexile.subproblem", "flexile.subproblem_batch"];
/// One simplex solve.
pub const LP_SPAN: &str = "lp.solve";
/// Node cap `flexile::master` hands to branch and bound; a master call
/// with this many node LPs stopped at the cap, not at proven optimality.
pub const MASTER_NODE_CAP: u64 = 5_000;

const US: f64 = 1e-6;

fn end_us(e: &Event) -> u64 {
    e.ts_us + e.dur_us
}

fn spans<'a>(t: &'a Telemetry, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
    t.events_named(name).filter(|e| e.kind == EventKind::Span)
}

/// Total span time, in seconds, of every span named `name`.
pub fn span_s(t: &Telemetry, name: &str) -> f64 {
    spans(t, name).fold(0.0, |acc, e| acc + e.dur_us as f64 * US)
}

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counters.get(name).copied().unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Length of the union of the `children` intervals `(start, end)` clipped
/// to `[start, end)`.
pub fn covered_us(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in ivs {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of `parent`, in µs: its duration minus the part of its
/// interval covered by the other spans of `children` on the same thread.
pub fn self_time_us(parent: &Event, children: &[&Event]) -> u64 {
    let kids: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| c.tid == parent.tid && c.kind == EventKind::Span && !std::ptr::eq(**c, parent))
        .map(|c| (c.ts_us, end_us(c)))
        .collect();
    parent.dur_us - covered_us(parent.ts_us, end_us(parent), &kids)
}

/// The layer an `lp.solve` span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A branch-and-bound node LP of the `i`-th master call (0-based).
    Master(usize),
    /// A scenario solve of the subproblem wave.
    Subproblem,
    /// Neither (set-up, post-analysis, online reaction).
    Other,
}

/// Attribute every `lp.solve` span of `t` by nesting: an LP that lies
/// inside the `i`-th `flexile.master` span on the same thread is a master
/// node LP of call `i`; one inside a pool worker's `flexile.subproblem` or
/// `flexile.subproblem_batch` span on the same thread belongs to the
/// subproblem wave. Spans on other threads never contain it.
pub fn attribute_lp_solves(t: &Telemetry) -> Vec<(&Event, Owner)> {
    let mut parents: BTreeMap<u64, Vec<(u64, u64, Owner)>> = BTreeMap::new();
    for (i, m) in spans(t, MASTER_SPAN).enumerate() {
        parents
            .entry(m.tid)
            .or_default()
            .push((m.ts_us, end_us(m), Owner::Master(i)));
    }
    for name in SUBPROBLEM_SPANS {
        for s in spans(t, name) {
            parents
                .entry(s.tid)
                .or_default()
                .push((s.ts_us, end_us(s), Owner::Subproblem));
        }
    }
    for v in parents.values_mut() {
        v.sort_unstable_by_key(|p| (p.0, p.1));
    }
    spans(t, LP_SPAN)
        .map(|lp| {
            let owner = parents.get(&lp.tid).and_then(|v| {
                let after = v.partition_point(|p| p.0 <= lp.ts_us);
                v[..after]
                    .iter()
                    .rev()
                    .find(|p| p.1 >= end_us(lp))
                    .map(|p| p.2)
            });
            (lp, owner.unwrap_or(Owner::Other))
        })
        .collect()
}

fn pivots(lp: &Event) -> u64 {
    lp.num_field("iterations").unwrap_or(0.0) as u64
}

/// Decomposition, master, subproblem, pool and LP-kernel metrics of one
/// traced `solve_flexile` call. `mip_time_limit` is the master's
/// branch-and-bound wall-clock budget: a master span at least that long
/// may have been cut by the clock.
pub fn solve_layers(t: &Telemetry, mip_time_limit: Duration, m: &mut Metrics) {
    let solve_s = span_s(t, "flexile.solve");

    m.push(
        "decomposition.iterations",
        spans(t, "flexile.iteration").count() as f64,
        "count",
    );
    m.push(
        "decomposition.cuts",
        counter(t, "flexile.cuts_added") as f64,
        "count",
    );
    let gap = t.events_named("flexile.bound_gap").last().map_or(0.0, |e| {
        let upper = e.num_field("upper").unwrap_or(0.0);
        upper - e.num_field("lower").unwrap_or(0.0)
    });
    m.push("decomposition.final_gap", gap, "loss");

    let masters: Vec<&Event> = spans(t, MASTER_SPAN).collect();
    let attributed = attribute_lp_solves(t);
    let mut node_lps = vec![0u64; masters.len()];
    let mut node_pivots = 0;
    let mut master_lps: Vec<&Event> = Vec::new();
    let mut sub_lps = 0u64;
    let mut sub_max_lp_us = 0u64;
    for &(lp, owner) in &attributed {
        match owner {
            Owner::Master(i) => {
                node_lps[i] += 1;
                node_pivots += pivots(lp);
                master_lps.push(lp);
            }
            Owner::Subproblem => {
                sub_lps += 1;
                sub_max_lp_us = sub_max_lp_us.max(lp.dur_us);
            }
            Owner::Other => {}
        }
    }
    let master_s = span_s(t, MASTER_SPAN);
    let total_node_lps: u64 = node_lps.iter().sum();
    let non_lp_us: u64 = masters.iter().map(|p| self_time_us(p, &master_lps)).sum();
    m.push("master.calls", masters.len() as f64, "count");
    m.push("master.s", master_s, "s");
    m.push("master.share", ratio(master_s, solve_s), "frac");
    m.push("master.node_lps", total_node_lps as f64, "count");
    m.push(
        "master.capped_calls",
        node_lps.iter().filter(|&&n| n >= MASTER_NODE_CAP).count() as f64,
        "count",
    );
    m.push("master.node_pivots", node_pivots as f64, "count");
    m.push(
        "master.pivots_per_node",
        ratio(node_pivots as f64, total_node_lps as f64),
        "pivots",
    );
    m.push("master.non_lp_s", non_lp_us as f64 * US, "s");
    let limit_us = mip_time_limit.as_micros() as u64;
    m.push(
        "master.time_limited_calls",
        masters.iter().filter(|p| p.dur_us >= limit_us).count() as f64,
        "count",
    );

    let wave_s = span_s(t, WAVE_SPAN);
    let dual_pivots = counter(t, "lp.pivots.dual");
    let dual_restarts = counter(t, "lp.dual_restarts");
    let hits = counter(t, "flexile.scenario_warm_hit");
    let misses = counter(t, "flexile.scenario_warm_miss");
    let sub_max_lp_s = sub_max_lp_us as f64 * US;
    m.push("subproblem.s", wave_s, "s");
    m.push("subproblem.share", ratio(wave_s, solve_s), "frac");
    m.push("subproblem.lp_solves", sub_lps as f64, "count");
    m.push("subproblem.dual_pivots", dual_pivots as f64, "count");
    m.push("subproblem.dual_restarts", dual_restarts as f64, "count");
    m.push(
        "subproblem.pivots_per_dual_restart",
        ratio(dual_pivots as f64, dual_restarts as f64),
        "pivots",
    );
    m.push(
        "subproblem.warm_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "frac",
    );
    m.push("subproblem.max_lp_s", sub_max_lp_s, "s");
    m.push(
        "subproblem.straggler_share",
        ratio(sub_max_lp_s, wave_s),
        "frac",
    );

    let hist_sum = |name: &str| t.hists.get(name).map_or(0.0, |h| h.sum());
    let width = t.hists.get("flexile.batch_unit_width");
    m.push("pool.steals", counter(t, "flexile.steal") as f64, "count");
    m.push("pool.wait_s", hist_sum("flexile.subproblem_wait") * US, "s");
    m.push(
        "pool.batch_width_mean",
        width.map_or(0.0, |h| h.mean()),
        "scenarios",
    );
    m.push(
        "pool.batch_divergence_ratio",
        ratio(
            counter(t, "lp.batch_divergences") as f64,
            hist_sum("lp.batch_width"),
        ),
        "frac",
    );
}

/// Total simplex pivots recorded in `t`, over all three phases.
pub fn total_pivots(t: &Telemetry) -> u64 {
    ["lp.pivots.phase1", "lp.pivots.phase2", "lp.pivots.dual"]
        .iter()
        .map(|n| counter(t, n))
        .sum()
}

/// LP-kernel metrics over everything recorded in `t`.
pub fn lp_layer(t: &Telemetry, m: &mut Metrics) {
    let solve_s = span_s(t, LP_SPAN);
    m.push("lp.solves", spans(t, LP_SPAN).count() as f64, "count");
    m.push("lp.solve_s", solve_s, "s");
    for name in ["lp.pivots.phase1", "lp.pivots.phase2", "lp.pivots.dual"] {
        m.push(name, counter(t, name) as f64, "count");
    }
    for name in [
        "lp.ftran_calls",
        "lp.btran_calls",
        "lp.refactorizations",
        "lp.bland_activations",
    ] {
        m.push(name, counter(t, name) as f64, "count");
    }
    m.push(
        "lp.us_per_pivot",
        ratio(solve_s * 1e6, total_pivots(t) as f64),
        "us",
    );
}

/// Spans of the offline phase (`flexile.master`, `flexile.subproblems`)
/// recorded in `t`; an online replay must have none.
pub fn offline_spans(t: &Telemetry) -> usize {
    spans(t, MASTER_SPAN).count() + spans(t, WAVE_SPAN).count()
}
