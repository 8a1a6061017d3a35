//! Flexile benchmark: offline solve time split into master branch and
//! bound and subproblem wave, plus online reaction latency.
//!
//! ```text
//! flexbench --workload <exact_master|subproblem_wave|online_reaction>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that rolls the program's own
//! spans and counters up into per-layer metrics. The last line of stdout
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` for why each workload exists.

use flexbench::rollup::{self, span_s};
use flexbench::stats::{self, median, percentile};
use flexbench::{result_json, Metrics};
use flexile_core::online::{flexile_losses_with_report, DegradationLevel};
use flexile_core::subproblem::SubproblemTemplate;
use flexile_core::{solve_flexile, FlexileDesign, FlexileOptions};
use flexile_emu::chaos::{run_chaos, ChaosReport, ChaosTrace};
use flexile_metrics::{perc_loss, LossMatrix};
use flexile_obs::Telemetry;
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{topology_by_name, zoo};
use flexile_traffic::Instance;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Seed of every workload's topology, failure probabilities and traffic.
/// The instance is pinned because the offline solve cost depends on it
/// by more than 100x (see README.md); `--seed` drives the online
/// fail/recover trace instead.
const INSTANCE_SEED: u64 = 7;

/// Worker threads of the subproblem pool (the benchmark box has 2 cores).
const THREADS: usize = 2;

/// Set-ups at the start of an untraced run, at least. Set-up also runs in
/// slices of at least `SETUP_SLICE_S`: one at the start and one after each
/// offline solve, so that its samples spread over the run. `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 3;
const SETUP_SLICE_S: f64 = 0.25;

/// Timed solves per untraced run, at least: two solves of one seed must
/// give a bit-equal penalty.
const MIN_SOLVES: usize = 2;

/// Reactions per replay, at least, so that at least ten samples lie
/// beyond the reported p99.
const MIN_REACTIONS: usize = 1_000;

/// Reactions replayed against each offline solve's design, right after
/// the solve.
const OFFLINE_REACTIONS_PER_SOLVE: usize = 3_000;

/// Control intervals per generated fail/recover trace chunk.
const TRACE_CHUNK: u64 = 200;

/// Relative tolerance between a design's penalty and its cold
/// re-evaluation.
const PENALTY_RTOL: f64 = 1e-6;

struct Spec {
    topology: &'static str,
    two_class: bool,
    max_pairs: usize,
    max_scenarios: usize,
    target_mlu: f64,
    /// Explicit β for every class; `None` keeps the automatic
    /// (largest feasible) target.
    beta: Option<f64>,
    opts: FlexileOptions,
    /// The design is solved in set-up and the run replays reactions
    /// against it; otherwise the run times repeated offline solves.
    online: bool,
}

fn spec(workload: &str) -> Option<Spec> {
    let offline = |topology, max_pairs, max_scenarios| Spec {
        topology,
        two_class: false,
        max_pairs,
        max_scenarios,
        target_mlu: 1.05,
        beta: Some(0.99),
        opts: FlexileOptions {
            threads: THREADS,
            max_iterations: 12,
            ..Default::default()
        },
        online: false,
    };
    match workload {
        // nf·nq = 12·16 ≤ 600: the master runs exact branch and bound.
        "exact_master" => Some(offline("IBM", 12, 16)),
        // nf·nq = 30·40 > 600: LP-relaxation master, warm dual restarts.
        "subproblem_wave" => Some(offline("CWIX", 30, 40)),
        "online_reaction" => Some(Spec {
            topology: "Sprint",
            two_class: true,
            max_pairs: 20,
            max_scenarios: 300,
            target_mlu: 0.6,
            beta: None,
            opts: FlexileOptions {
                threads: THREADS,
                ..Default::default()
            },
            online: true,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

struct Setup {
    inst: Instance,
    set: ScenarioSet,
}

/// A timed `solve_flexile` call: wall seconds and the design, or the
/// panic it raised.
type Solve = (f64, Result<FlexileDesign, String>);

/// Build the workload's instance the way `flexile-bench`'s
/// `single_class_setup`/`two_class_setup` do, one library call per
/// `bench.setup.*` span. The online workload also solves its design here.
fn setup(spec: &Spec) -> (Setup, Option<Solve>) {
    let _all = flexile_obs::span("bench.setup", "bench");
    let topo = {
        let _s = flexile_obs::span("bench.setup.topo", "bench");
        topology_by_name(spec.topology).expect("workload names a Table-2 topology")
    };
    let set = {
        let _s = flexile_obs::span("bench.setup.scenarios", "bench");
        let failure_seed = INSTANCE_SEED ^ zoo::fnv1a(spec.topology).rotate_left(17);
        let probs = flexile_scenario::link_failure_probs(
            topo.num_links(),
            flexile_scenario::weibull::DEFAULT_SHAPE,
            flexile_scenario::weibull::DEFAULT_MEDIAN,
            failure_seed,
        );
        let units = link_units(&topo, &probs);
        let enum_opts = EnumOptions {
            prob_cutoff: 1e-6,
            max_scenarios: spec.max_scenarios,
            coverage_target: 0.9999,
        };
        enumerate_scenarios(&units, topo.num_links(), &enum_opts)
    };
    let inst = {
        let _s = flexile_obs::span("bench.setup.instance", "bench");
        let traffic_seed = INSTANCE_SEED ^ zoo::fnv1a(spec.topology);
        let pairs = Some(spec.max_pairs);
        let mut inst = if spec.two_class {
            Instance::two_class(topo, traffic_seed, spec.target_mlu, pairs)
        } else {
            Instance::single_class(topo, traffic_seed, spec.target_mlu, pairs)
        };
        if let Some(beta) = spec.beta {
            inst.classes.iter_mut().for_each(|c| c.beta = beta);
        }
        inst
    };
    let design = spec.online.then(|| {
        let _s = flexile_obs::span("bench.setup.design", "bench");
        timed_solve(&inst, &set, &spec.opts)
    });
    (Setup { inst, set }, design)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn timed_solve(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> Solve {
    let t = Instant::now();
    let d = catch_unwind(AssertUnwindSafe(|| solve_flexile(inst, set, opts)));
    (t.elapsed().as_secs_f64(), d.map_err(panic_message))
}

/// Failure accounting: an operation is one solve or one reaction.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ops {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }
}

/// Re-evaluate a design's penalty from its criticality: each scenario's
/// subproblem solved cold on a fresh template, then `Σ_k w_k PercLoss_k`.
/// This is `evaluate_criticality`'s computation without its one template
/// shared across scenarios, whose cross-scenario warm restarts stall for
/// minutes on two of the three workloads (see README.md).
fn reevaluate_penalty(
    inst: &Instance,
    set: &ScenarioSet,
    critical: &[Vec<bool>],
) -> Result<f64, String> {
    let nf = inst.num_flows();
    let mut loss = vec![vec![1.0; set.scenarios.len()]; nf];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let zq: Vec<bool> = (0..nf).map(|f| critical[f][q]).collect();
        let sol = SubproblemTemplate::for_demand_factor(inst, None, scen.demand_factor)
            .solve(inst, scen, &zq)
            .map_err(|e| format!("re-evaluating scenario {q}: {e}"))?;
        for (row, &l) in loss.iter_mut().zip(&sol.loss) {
            row[q] = l;
        }
    }
    let lm = LossMatrix::new(loss, set.probs(), set.residual);
    let betas = flexile_core::effective_betas(inst, set);
    Ok((0..inst.num_classes())
        .map(|k| inst.classes[k].weight * perc_loss(&lm, &inst.class_flows(k), betas[k]))
        .sum())
}

/// Check a design outside any timer: its penalty must match the cold
/// re-evaluation of its criticality, and be bit-equal to `reference`
/// (another design of the same run) when given.
fn check_design(
    inst: &Instance,
    set: &ScenarioSet,
    d: &FlexileDesign,
    reference: Option<f64>,
) -> Result<(), String> {
    let eval = reevaluate_penalty(inst, set, &d.critical)?;
    if !d.penalty.is_finite() || (eval - d.penalty).abs() > PENALTY_RTOL * d.penalty.abs().max(1.0)
    {
        return Err(format!(
            "penalty {} but re-evaluation gives {eval}",
            d.penalty
        ));
    }
    if let Some(r) = reference.filter(|r| r.to_bits() != d.penalty.to_bits()) {
        return Err(format!(
            "penalty {} differs from {r} of the same run",
            d.penalty
        ));
    }
    Ok(())
}

/// Online post-analysis: every scenario's allocation under the design,
/// then the worst class's β-percentile loss.
fn post_analysis(inst: &Instance, set: &ScenarioSet, d: &FlexileDesign) -> Result<f64, String> {
    let (res, report) = flexile_losses_with_report(inst, set, d);
    if report.worst() != DegradationLevel::None {
        return Err(format!(
            "post-analysis degraded: levels {:?}",
            report.counts()
        ));
    }
    if res.loss.iter().flatten().any(|l| !(0.0..=1.0).contains(l)) {
        return Err("post-analysis loss outside [0, 1]".into());
    }
    let lm = LossMatrix::new(res.loss, set.probs(), set.residual);
    let betas = flexile_core::effective_betas(inst, set);
    Ok((0..inst.num_classes())
        .map(|k| perc_loss(&lm, &inst.class_flows(k), betas[k]))
        .fold(0.0, f64::max))
}

/// Seeded fail/recover trace: a splitmix walk that keeps one to three
/// failure units down, each for two to four control intervals.
struct TraceGen {
    x: u64,
    units: usize,
}

impl TraceGen {
    fn new(seed: u64, units: usize) -> Self {
        TraceGen { x: seed, units }
    }

    fn next(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next `steps` intervals, starting with every unit up.
    fn chunk(&mut self, steps: u64) -> ChaosTrace {
        let mut trace = ChaosTrace::new();
        let mut down: Vec<Option<u64>> = vec![None; self.units];
        for t in 0..steps {
            let z = self.next();
            for (u, rec) in down.iter_mut().enumerate() {
                if *rec == Some(t) {
                    trace = trace.recover(t, u);
                    *rec = None;
                }
            }
            if down.iter().filter(|r| r.is_some()).count() < 3 {
                let u = (z % self.units as u64) as usize;
                if down[u].is_none() {
                    trace = trace.fail(t, u);
                    down[u] = Some(t + 2 + (z >> 32) % 3);
                }
            }
        }
        trace
    }
}

/// A closed-loop replay: one controller reacts to each interval only
/// after its previous reaction finished.
#[derive(Default)]
struct Replay {
    reaction_ms: Vec<f64>,
    planned: Vec<bool>,
    degraded: usize,
    /// Wall time inside `run_chaos`, in seconds.
    wall_s: f64,
}

impl Replay {
    /// Replay further chunks of `gen`'s trace against `design` until this
    /// replay holds at least `min_reactions` reactions and this call has
    /// replayed for at least `min_seconds`. Each reaction is one
    /// operation; a degraded reaction or a broken loss-bound invariant
    /// fails it.
    fn extend(
        &mut self,
        su: &Setup,
        design: &FlexileDesign,
        gen: &mut TraceGen,
        min_reactions: usize,
        min_seconds: f64,
        ops: &mut Ops,
    ) {
        let wall0 = self.wall_s;
        while self.reaction_ms.len() < min_reactions || self.wall_s - wall0 < min_seconds {
            let trace = gen.chunk(TRACE_CHUNK);
            let t = Instant::now();
            let report = run_chaos(&su.inst, &su.set, design, &trace, |_| None);
            self.wall_s += t.elapsed().as_secs_f64();
            for step in report.steps {
                self.reaction_ms.push(step.reaction.as_secs_f64() * 1e3);
                self.planned.push(step.enumerated);
                let level = step.outcome.level;
                let invariants = ChaosReport { steps: vec![step] }.check_invariants(&su.inst);
                if level != DegradationLevel::None {
                    self.degraded += 1;
                    ops.record(Err(format!("reaction degraded to {}", level.name())));
                } else {
                    ops.record(invariants);
                }
            }
        }
    }
}

/// A replay of [`MIN_REACTIONS`] reactions of `seed`'s trace: the same
/// work on every run of one seed.
fn replay(su: &Setup, design: &FlexileDesign, seed: u64, ops: &mut Ops) -> Replay {
    let mut r = Replay::default();
    r.extend(
        su,
        design,
        &mut TraceGen::new(seed, su.set.units.len()),
        MIN_REACTIONS,
        0.0,
        ops,
    );
    r
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set up at least `min_repeats` times and for at least `min_s`, pushing
/// each set-up's wall time onto `times` and each design solved in set-up
/// onto `solves`. Returns the last set-up.
fn timed_setups(
    spec: &Spec,
    min_repeats: usize,
    min_s: f64,
    times: &mut Vec<f64>,
    solves: &mut Vec<Solve>,
) -> Setup {
    let started = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        let (su, design) = setup(spec);
        times.push(t.elapsed().as_secs_f64());
        solves.extend(design);
        n += 1;
        if n >= min_repeats && started.elapsed().as_secs_f64() >= min_s {
            return su;
        }
    }
}

/// The untraced run: every end-to-end metric.
fn run_untraced(spec: &Spec, args: &Args, ops: &mut Ops) -> Metrics {
    let mut m = Metrics::default();
    let mut setup_s = Vec::new();
    let mut solves = Vec::new();
    let su = timed_setups(
        spec,
        SETUP_REPEATS,
        SETUP_SLICE_S,
        &mut setup_s,
        &mut solves,
    );
    let (inst, set) = (&su.inst, &su.set);

    // Offline, each solve is followed by a replay against its design and a
    // slice of set-ups, so that every kind of sample spreads over the run.
    let mut gen = TraceGen::new(args.seed, set.units.len());
    let mut r = Replay::default();
    if !spec.online {
        let t0 = Instant::now();
        while solves.len() < MIN_SOLVES || t0.elapsed().as_secs_f64() < args.seconds {
            let (s, d) = timed_solve(inst, set, &spec.opts);
            if let Ok(d) = &d {
                let want = r.reaction_ms.len() + OFFLINE_REACTIONS_PER_SOLVE;
                r.extend(&su, d, &mut gen, want, 0.0, ops);
            }
            solves.push((s, d));
            timed_setups(spec, 1, SETUP_SLICE_S, &mut setup_s, &mut Vec::new());
        }
    }
    eprintln!(
        "set-up: {} repeats, median {:.6} s",
        setup_s.len(),
        median(&setup_s)
    );
    m.push("setup_s", median(&setup_s), "s");
    let solve_s: Vec<f64> = solves.iter().map(|s| s.0).collect();
    eprintln!("solves: {solve_s:.3?} s");
    m.push("solve_s", median(&solve_s), "s");

    let mut first: Option<f64> = None;
    let mut design = None;
    for (_, d) in solves {
        ops.record(d.and_then(|d| {
            check_design(inst, set, &d, first)?;
            first.get_or_insert(d.penalty);
            design = Some(d);
            Ok(())
        }));
    }
    let Some(design) = design else {
        return m;
    };
    m.push("penalty", design.penalty, "loss");
    let loss = post_analysis(inst, set, &design);
    ops.record(loss.as_ref().map(|_| ()).map_err(Clone::clone));
    m.push("perc_loss", loss.unwrap_or(f64::NAN), "loss");

    let min_seconds = if spec.online { args.seconds } else { 0.0 };
    r.extend(&su, &design, &mut gen, MIN_REACTIONS, min_seconds, ops);
    let n = r.reaction_ms.len();
    eprintln!(
        "reactions: {n} samples, {} beyond p99; highest percentile with >= {} beyond: {:?}",
        stats::samples_beyond(n, 99.0),
        stats::TAIL_SAMPLES,
        stats::highest_tail_percentile(n, &[50.0, 90.0, 99.0, 99.9, 99.99]),
    );
    let deciles: Vec<f64> = (1..10)
        .map(|i| percentile(&r.reaction_ms, 10.0 * i as f64))
        .collect();
    eprintln!("reaction deciles: {deciles:.3?} ms");
    m.push("reaction_p50_ms", percentile(&r.reaction_ms, 50.0), "ms");
    m.push("reaction_p99_ms", percentile(&r.reaction_ms, 99.0), "ms");
    m.push("reactions_per_s", n as f64 / r.wall_s, "1/s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Run `f` with telemetry on and return its result with everything it
/// recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Telemetry) {
    flexile_obs::enable();
    let out = f();
    let t = flexile_obs::drain();
    flexile_obs::disable();
    (out, t)
}

fn online_layer(r: &Replay, t: &Telemetry, m: &mut Metrics) {
    let n = r.reaction_ms.len() as f64;
    let p50_of = |planned: bool| {
        let ms: Vec<f64> = r
            .reaction_ms
            .iter()
            .zip(&r.planned)
            .filter(|(_, &p)| p == planned)
            .map(|(&ms, _)| ms)
            .collect();
        percentile(&ms, 50.0)
    };
    m.push("online.reactions", n, "count");
    m.push(
        "online.lp_solves_per_reaction",
        t.events_named(rollup::LP_SPAN).count() as f64 / n,
        "solves",
    );
    m.push(
        "online.pivots_per_reaction",
        rollup::total_pivots(t) as f64 / n,
        "pivots",
    );
    m.push(
        "online.planned_share",
        r.planned.iter().filter(|&&p| p).count() as f64 / n,
        "frac",
    );
    m.push("online.planned_p50_ms", p50_of(true), "ms");
    m.push("online.unplanned_p50_ms", p50_of(false), "ms");
    m.push("online.degraded", r.degraded as f64, "count");
}

/// The traced run: every per-layer metric. Returns whether the run is
/// valid: no master call may reach the branch-and-bound wall-clock limit
/// (the design would then depend on machine speed), and no offline span
/// may occur during an online replay.
fn run_traced(spec: &Spec, args: &Args, ops: &mut Ops) -> (Metrics, bool) {
    let mut m = Metrics::default();
    let ((su, setup_design), setup_t) = traced(|| setup(spec));
    m.push("setup.topo_s", span_s(&setup_t, "bench.setup.topo"), "s");
    m.push(
        "setup.scenarios_s",
        span_s(&setup_t, "bench.setup.scenarios"),
        "s",
    );
    m.push(
        "setup.instance_s",
        span_s(&setup_t, "bench.setup.instance"),
        "s",
    );
    m.push(
        "setup.design_s",
        span_s(&setup_t, "bench.setup.design"),
        "s",
    );
    m.push("scenario.count", su.set.scenarios.len() as f64, "count");
    m.push("scenario.covered_prob", su.set.covered_prob(), "frac");
    let (inst, set) = (&su.inst, &su.set);

    // The traced solve the layers are read from: the set-up design on the
    // online workload; otherwise an untraced reference solve, for the
    // tracing overhead, then a traced one.
    let (reference, ((traced_s, design), solve_t)) = match setup_design {
        Some(s) => (None, (s, setup_t)),
        None => {
            let reference = timed_solve(inst, set, &spec.opts);
            (
                Some(reference),
                traced(|| timed_solve(inst, set, &spec.opts)),
            )
        }
    };
    let design = match design {
        Ok(d) => d,
        Err(e) => {
            ops.record(Err(e));
            return (m, false);
        }
    };
    ops.record(check_design(inst, set, &design, None));
    rollup::solve_layers(&solve_t, spec.opts.master.mip_time_limit, &mut m);
    let time_limited = m.get("master.time_limited_calls").unwrap_or(0.0) > 0.0;

    // One single-thread pass: the pool's speed-up, and a penalty that must
    // not depend on the thread count.
    let one_thread = FlexileOptions {
        threads: 1,
        ..spec.opts.clone()
    };
    let ((one_s, one), _) = traced(|| timed_solve(inst, set, &one_thread));
    m.push("pool.parallel_speedup", one_s / traced_s, "x");
    let untraced_solve_s = reference.as_ref().map(|r| r.0);
    for d in std::iter::once(one).chain(reference.map(|r| r.1)) {
        ops.record(d.and_then(|d| check_design(inst, set, &d, Some(design.penalty))));
    }
    ops.record(post_analysis(inst, set, &design).map(|_| ()));

    // Tracing overhead: solve wall offline, reaction p50 online.
    let untraced = untraced_solve_s
        .unwrap_or_else(|| percentile(&replay(&su, &design, args.seed, ops).reaction_ms, 50.0));
    let (r, replay_t) = traced(|| replay(&su, &design, args.seed, ops));
    let traced_value = if spec.online {
        percentile(&r.reaction_ms, 50.0)
    } else {
        traced_s
    };
    let offline_in_replay = rollup::offline_spans(&replay_t);
    if offline_in_replay > 0 {
        ops.errors.push(format!(
            "{offline_in_replay} offline spans during the online replay"
        ));
    }
    if time_limited {
        ops.errors
            .push("a master call reached the branch-and-bound time limit".into());
    }
    rollup::lp_layer(if spec.online { &replay_t } else { &solve_t }, &mut m);
    online_layer(&r, &replay_t, &mut m);
    m.push("obs.overhead_frac", traced_value / untraced - 1.0, "frac");
    m.push(
        "error_rate",
        stats::error_rate(ops.attempted, ops.failed),
        "frac",
    );
    (m, !time_limited && offline_in_replay == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flexbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!("flexbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    eprintln!(
        "flexbench: {} seed {} trace {} ({THREADS} pool threads, available parallelism {:?})",
        args.workload,
        args.seed,
        args.trace as u8,
        std::thread::available_parallelism().map(|n| n.get()).ok()
    );
    let mut ops = Ops::default();
    let (m, valid) = if args.trace {
        run_traced(&spec, &args, &mut ops)
    } else {
        (run_untraced(&spec, &args, &mut ops), true)
    };
    for e in &ops.errors {
        eprintln!("flexbench: failed: {e}");
    }
    for (name, v, unit) in m.iter() {
        println!("{name:<36} {v:>16.6} {unit}");
    }
    println!(
        "{}",
        result_json(valid && ops.failed == 0, ops.attempted, ops.failed, &m)
    );
    ExitCode::SUCCESS
}
