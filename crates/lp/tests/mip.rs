//! Branch-and-bound acceptance tests on seeded random pure-binary programs:
//!
//! * **Exactness** — on knapsack (max, `≤` rows) and covering (min, `≥`
//!   rows) programs with at most 12 binaries, the reported optimum equals
//!   exhaustive enumeration of all `2^n` assignments, and the returned
//!   point is feasible and attains it.
//! * **Determinism** — two runs on the same model return bit-identical
//!   `x`, the same node count and the same status.

use flexile_lp::{solve_mip, MipOptions, MipStatus, Model, Sense, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random pure-binary program and the data enumeration needs: each row
/// is `(coefficients, rhs)` over all `n` binaries, read as `≥` for a
/// covering program and `≤` otherwise.
struct Program {
    model: Model,
    obj: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    covering: bool,
}

/// Max `c·x` s.t. a few knapsack rows `a·x ≤ b`, integer data.
fn knapsack(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(4..=12usize);
    let mut m = Model::new(Sense::Max);
    let obj: Vec<f64> = (0..n).map(|_| rng.random_range(1..30u32) as f64).collect();
    let vars: Vec<VarId> = (0..n).map(|j| m.add_binary(&format!("x{j}"), obj[j])).collect();
    let mut rows = Vec::new();
    for _ in 0..rng.random_range(1..=3usize) {
        let a: Vec<f64> = (0..n).map(|_| rng.random_range(1..20u32) as f64).collect();
        let b = (a.iter().sum::<f64>() * rng.random_range(0.3..0.7)).floor();
        let coeffs: Vec<(VarId, f64)> = vars.iter().copied().zip(a.iter().copied()).collect();
        m.add_row_le(&coeffs, b);
        rows.push((a, b));
    }
    Program { model: m, obj, rows, covering: false }
}

/// Min `c·x` s.t. covering rows `Σ_{j∈S} x_j ≥ 1` over random subsets.
fn covering(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(4..=12usize);
    let mut m = Model::new(Sense::Min);
    let obj: Vec<f64> = (0..n).map(|_| rng.random_range(1..10u32) as f64).collect();
    let vars: Vec<VarId> = (0..n).map(|j| m.add_binary(&format!("x{j}"), obj[j])).collect();
    let mut rows = Vec::new();
    for _ in 0..rng.random_range(n / 2..=2 * n) {
        let mut a: Vec<f64> =
            (0..n).map(|_| if rng.random_range(0.0..1.0) < 0.3 { 1.0 } else { 0.0 }).collect();
        // Keep every row coverable.
        let forced = rng.random_range(0..n);
        a[forced] = 1.0;
        let coeffs: Vec<(VarId, f64)> = vars
            .iter()
            .zip(&a)
            .filter(|(_, &c)| c != 0.0)
            .map(|(&v, &c)| (v, c))
            .collect();
        m.add_row_ge(&coeffs, 1.0);
        rows.push((a, 1.0));
    }
    Program { model: m, obj, rows, covering: true }
}

/// Best objective over all `2^n` binary assignments.
fn enumerate(p: &Program) -> f64 {
    let n = p.obj.len();
    let mut best = if p.covering { f64::INFINITY } else { f64::NEG_INFINITY };
    for mask in 0u32..(1 << n) {
        let bit = |j: usize| ((mask >> j) & 1) as f64;
        let feasible = p.rows.iter().all(|(a, b)| {
            let lhs: f64 = (0..n).map(|j| a[j] * bit(j)).sum();
            if p.covering {
                lhs >= *b
            } else {
                lhs <= *b
            }
        });
        if feasible {
            let val: f64 = (0..n).map(|j| p.obj[j] * bit(j)).sum();
            best = if p.covering { best.min(val) } else { best.max(val) };
        }
    }
    best
}

fn check_exact(p: &Program, label: &str) {
    let r = solve_mip(&p.model, &MipOptions::default()).expect("mip solve");
    let want = enumerate(p);
    assert_eq!(r.status, MipStatus::Optimal, "{label}: not proven optimal");
    assert!(
        (r.objective - want).abs() <= 1e-6,
        "{label}: branch and bound found {} but enumeration {want}",
        r.objective
    );
    assert!(r.x.iter().all(|v| (v - v.round()).abs() <= 1e-6), "{label}: fractional x");
    assert!(p.model.max_violation(&r.x) <= 1e-6, "{label}: infeasible x");
    assert!((p.model.eval_objective(&r.x) - want).abs() <= 1e-6, "{label}: x misses optimum");
}

#[test]
fn knapsack_matches_enumeration() {
    for seed in 0..40 {
        check_exact(&knapsack(seed), &format!("knapsack seed {seed}"));
    }
}

#[test]
fn covering_matches_enumeration() {
    for seed in 0..40 {
        check_exact(&covering(1_000 + seed), &format!("covering seed {seed}"));
    }
}

#[test]
fn repeated_runs_are_identical() {
    // A small node cap also pins down the truncated path.
    for max_nodes in [3, 20_000] {
        let opts = MipOptions { max_nodes, ..MipOptions::default() };
        for p in (0..10).map(knapsack).chain((0..10).map(covering)) {
            let a = solve_mip(&p.model, &opts).expect("first run");
            let b = solve_mip(&p.model, &opts).expect("second run");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.x), bits(&b.x));
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.status, b.status);
        }
    }
}
