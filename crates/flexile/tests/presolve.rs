//! Decomposition-level acceptance tests for LP presolve:
//!
//! * **Bit-identity** — the offline design (penalty, criticality sets,
//!   alpha, loss matrix) is bit-identical with master presolve on vs off,
//!   and across thread counts in both configurations. Presolve is a
//!   *solver*-side reduction with exact postsolve; it must never leak into
//!   the decomposition trajectory. (Subproblems always solve with presolve
//!   off — Benders cuts are built from their duals, and the cut-function
//!   equivalence tests in `pool.rs` pin those bit-exactly.)
//! * **Warm nodes** — on the Sprint fixture the master's branch-and-bound
//!   nodes restart from their parent's basis (`lp.warm.hit`,
//!   `lp.dual_restarts`); presolve runs only on the cold root, which the
//!   `flexile-lp` telemetry tests pin down.

use flexile_core::{solve_flexile, FlexileDesign, FlexileOptions};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
use flexile_traffic::{ClassConfig, Instance};
use std::sync::Mutex;

static SINK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// The paper's Fig. 1 triangle with the explicit 99% requirement.
fn fig1_setup() -> (Instance, ScenarioSet) {
    let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
    let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
    let mut inst = Instance {
        topo,
        pairs,
        classes: vec![ClassConfig::single()],
        tunnels: vec![tunnels],
        demands: vec![vec![1.0, 1.0]],
    };
    inst.classes[0].beta = 0.99;
    let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
    let set = enumerate_scenarios(
        &units,
        3,
        &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
    );
    (inst, set)
}

/// Small-caps Sprint instance (Table 2 topology), trimmed to tier-1 time
/// budgets; β = 0.99 below max-feasible so the decomposition iterates.
fn sprint_setup() -> (Instance, ScenarioSet) {
    let topo = flexile_topo::topology_by_name("Sprint").expect("Sprint is in the zoo");
    let probs = flexile_scenario::link_failure_probs(
        topo.num_links(),
        flexile_scenario::weibull::DEFAULT_SHAPE,
        flexile_scenario::weibull::DEFAULT_MEDIAN,
        42,
    );
    let units = link_units(&topo, &probs);
    let set = enumerate_scenarios(
        &units,
        topo.num_links(),
        &EnumOptions { prob_cutoff: 1e-6, max_scenarios: 12, coverage_target: 0.9999 },
    );
    let mut inst = Instance::single_class(topo, 7, 0.95, Some(6));
    inst.classes[0].beta = 0.99;
    (inst, set)
}

fn design_bits(d: &FlexileDesign) -> (u64, Vec<Vec<bool>>, Vec<u64>, Vec<u64>) {
    (
        d.penalty.to_bits(),
        d.critical.clone(),
        d.alpha.iter().map(|v| v.to_bits()).collect(),
        d.offline_loss.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn design_identical_presolve_on_off_fig1() {
    let (inst, set) = fig1_setup();
    let mut reference = None;
    for presolve in [true, false] {
        for threads in [1, 8] {
            let mut opts = FlexileOptions { threads, ..Default::default() };
            opts.master.presolve = presolve;
            let d = design_bits(&solve_flexile(&inst, &set, &opts));
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(
                    r, &d,
                    "fig1 output diverged at presolve={presolve} threads={threads}"
                ),
            }
        }
    }
}

#[test]
fn design_identical_presolve_on_off_sprint() {
    let (inst, set) = sprint_setup();
    let mut reference = None;
    for presolve in [true, false] {
        for threads in [1, 8] {
            let mut opts =
                FlexileOptions { threads, max_iterations: 3, ..Default::default() };
            opts.master.presolve = presolve;
            let d = design_bits(&solve_flexile(&inst, &set, &opts));
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(
                    r, &d,
                    "Sprint output diverged at presolve={presolve} threads={threads}"
                ),
            }
        }
    }
}

#[test]
fn master_nodes_warm_start_on_sprint() {
    let _guard = exclusive();
    let (inst, set) = sprint_setup();
    flexile_obs::enable();
    let opts = FlexileOptions { threads: 2, max_iterations: 2, ..Default::default() };
    let _ = solve_flexile(&inst, &set, &opts);
    let report = flexile_obs::drain();
    flexile_obs::disable();
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert!(counter("lp.mip.nodes") > 1, "the Sprint master must branch: {report:?}");
    // Every subproblem warm restart counts once at the LP level and once at
    // the pool level; the LP-level surplus is the master's node solves.
    assert!(
        counter("lp.warm.hit") > counter("flexile.scenario_warm_hit"),
        "master nodes must warm-start: {:?}",
        report.counters
    );
    assert!(
        counter("lp.dual_restarts") > counter("flexile.dual_restart"),
        "branching bounds must repair by dual simplex: {:?}",
        report.counters
    );
}
