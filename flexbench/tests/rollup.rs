//! The benchmark's rollup and statistics on synthetic telemetry.

use flexbench::rollup::{
    attribute_lp_solves, covered_us, self_time_us, solve_layers, Owner, MASTER_NODE_CAP,
};
use flexbench::stats::{error_rate, highest_tail_percentile, median, percentile, samples_beyond};
use flexbench::{result_json, Metrics};
use flexile_obs::{Event, EventKind, Telemetry, Value};
use std::time::Duration;

fn span(name: &'static str, tid: u64, start: u64, end: u64) -> Event {
    Event {
        name,
        cat: "test",
        ts_us: start,
        dur_us: end - start,
        kind: EventKind::Span,
        tid,
        fields: Vec::new(),
    }
}

fn lp(tid: u64, start: u64, end: u64, iterations: u64) -> Event {
    let mut e = span("lp.solve", tid, start, end);
    e.fields.push(("iterations", Value::U64(iterations)));
    e
}

fn telemetry(mut events: Vec<Event>) -> Telemetry {
    events.sort_by_key(|e| e.ts_us);
    Telemetry {
        events,
        ..Default::default()
    }
}

#[test]
fn covered_time_is_the_union_clipped_to_the_window() {
    assert_eq!(covered_us(0, 100, &[]), 0);
    assert_eq!(covered_us(0, 100, &[(10, 30), (20, 40)]), 30);
    assert_eq!(covered_us(0, 100, &[(90, 120), (150, 160)]), 10);
    assert_eq!(covered_us(10, 20, &[(0, 100)]), 10);
}

#[test]
fn self_time_subtracts_the_union_of_same_thread_children() {
    let parent = span("flexile.master", 0, 0, 100);
    let kids = [
        span("lp.solve", 0, 10, 30),
        span("lp.solve", 0, 20, 40),  // overlaps the first: counted once
        span("lp.solve", 0, 90, 120), // only [90, 100) lies inside the parent
        span("lp.solve", 1, 50, 60),  // another thread: not a child
    ];
    let refs: Vec<&Event> = kids.iter().chain([&parent]).collect();
    assert_eq!(self_time_us(&parent, &refs), 100 - 30 - 10);
    assert_eq!(self_time_us(&parent, &[]), 100);
}

#[test]
fn lp_solves_are_attributed_by_nesting_on_the_same_thread() {
    let t = telemetry(vec![
        span("flexile.master", 0, 0, 100),
        span("flexile.master", 0, 200, 300),
        span("flexile.subproblem", 1, 0, 500),
        span("flexile.subproblem_batch", 2, 400, 450),
        lp(0, 10, 20, 3),   // master call 0
        lp(0, 210, 220, 3), // master call 1
        lp(0, 150, 160, 3), // main thread between master calls
        lp(1, 50, 60, 3),   // pool worker inside a scenario solve
        lp(2, 410, 420, 3), // pool worker inside a batch unit
        lp(3, 50, 60, 3),   // overlaps a master call in time, other thread
        lp(0, 90, 110, 3),  // straddles the end of master call 0
    ]);
    let owners: Vec<(u64, Owner)> = attribute_lp_solves(&t)
        .iter()
        .map(|(e, o)| (e.ts_us * 10 + e.tid, *o))
        .collect();
    assert_eq!(
        owners,
        vec![
            (100, Owner::Master(0)),
            (501, Owner::Subproblem),
            (503, Owner::Other),
            (900, Owner::Other),
            (1500, Owner::Other),
            (2100, Owner::Master(1)),
            (4102, Owner::Subproblem),
        ]
    );
}

#[test]
fn master_layer_counts_node_lps_caps_and_non_lp_time() {
    let cap = MASTER_NODE_CAP;
    let mut events = vec![
        span("flexile.solve", 0, 0, 1_000_000),
        span("flexile.master", 0, 0, 2 * cap + 10),
        span("flexile.master", 0, 500_000, 500_100),
        span("flexile.subproblems", 0, 600_000, 900_000),
        span("flexile.subproblem", 1, 600_000, 700_000),
        lp(1, 600_000, 700_000, 40),
    ];
    // The first call stops at the node cap, each node LP 1 µs long with
    // 2 pivots; the second proves optimality after one node.
    events.extend((0..cap).map(|i| lp(0, 2 * i, 2 * i + 1, 2)));
    events.push(lp(0, 500_000, 500_050, 7));
    let mut t = telemetry(events);
    t.counters.insert("lp.pivots.dual", 40);
    t.counters.insert("lp.dual_restarts", 4);
    t.counters.insert("flexile.scenario_warm_hit", 3);
    t.counters.insert("flexile.scenario_warm_miss", 1);

    let mut m = Metrics::default();
    solve_layers(&t, Duration::from_secs(20), &mut m);
    let get = |name: &str| m.get(name).unwrap_or_else(|| panic!("{name} missing"));
    assert_eq!(get("master.calls"), 2.0);
    assert_eq!(get("master.node_lps"), (cap + 1) as f64);
    assert_eq!(get("master.capped_calls"), 1.0);
    assert_eq!(get("master.node_pivots"), (2 * cap + 7) as f64);
    assert_eq!(get("master.time_limited_calls"), 0.0);
    // Call 0: 2·cap + 10 µs with cap µs in node LPs; call 1: 100 − 50.
    assert!((get("master.non_lp_s") - (cap + 10 + 50) as f64 * 1e-6).abs() < 1e-12);
    assert_eq!(get("subproblem.lp_solves"), 1.0);
    assert!((get("subproblem.max_lp_s") - 0.1).abs() < 1e-12);
    assert!((get("subproblem.straggler_share") - 0.1 / 0.3).abs() < 1e-12);
    assert_eq!(get("subproblem.pivots_per_dual_restart"), 10.0);
    assert_eq!(get("subproblem.warm_hit_ratio"), 0.75);
    assert!((get("subproblem.share") - 0.3).abs() < 1e-12);

    let mut slow = Metrics::default();
    solve_layers(&t, Duration::from_micros(100), &mut slow);
    assert_eq!(slow.get("master.time_limited_calls"), Some(2.0));
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(samples_beyond(0, 99.0), 0);
    let candidates = [50.0, 90.0, 99.0, 99.9];
    assert_eq!(highest_tail_percentile(1000, &candidates), Some(99.0));
    assert_eq!(highest_tail_percentile(999, &candidates), Some(90.0));
    assert_eq!(highest_tail_percentile(10_000, &candidates), Some(99.9));
    assert_eq!(highest_tail_percentile(20, &candidates), Some(50.0));
    assert_eq!(highest_tail_percentile(19, &candidates), None);

    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 99.0), 99.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn error_rate_is_failed_over_attempted() {
    assert_eq!(error_rate(0, 0), 0.0);
    assert_eq!(error_rate(1064, 0), 0.0);
    assert_eq!(error_rate(4, 4), 1.0);
    assert_eq!(error_rate(1064, 3), 3.0 / 1064.0);
}

#[test]
fn result_line_is_incorrect_when_a_value_is_not_finite() {
    let mut m = Metrics::default();
    m.push("solve_s", 1.5, "s");
    assert_eq!(
        result_json(true, 2, 0, &m),
        r#"{"correct": true, "attempted": 2, "failed": 0, "metrics": {"solve_s": {"value": 1.5, "unit": "s"}}}"#
    );
    m.push("perc_loss", f64::NAN, "loss");
    assert!(result_json(true, 2, 0, &m).starts_with(r#"{"correct": false"#));
}
