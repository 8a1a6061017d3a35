//! Depth-first, warm-started branch-and-bound for mixed-integer programs.
//!
//! The Flexile formulation (I) and the decomposition master problem are MIPs
//! over binary `z_fq` variables. This module provides an exact solver for
//! small/medium instances: LP relaxation at every node, branching on the most
//! fractional integer variable, plus a fix-and-resolve rounding heuristic to
//! find incumbents early.
//!
//! Nodes are explored deepest first (ties: best bound, then newest), so the
//! search dives to an incumbent quickly and the open frontier stays small.
//! Each child node re-solves from its parent's optimal basis: a bound change
//! keeps that basis dual feasible, so the simplex repairs it with a few
//! dual pivots instead of a cold two-phase solve. The root relaxation is
//! solved cold and presolved; warm solves skip presolve. A node whose
//! parent basis the simplex rejects falls back to a cold solve
//! (`lp.mip.cold_nodes`), presolved only when the rejection was a
//! numerical failure.
//!
//! Node and time budgets make it safe to call on larger instances, in which
//! case the result reports the achieved bound and the incumbent
//! (`MipStatus::Feasible`).

use crate::basis::EngineKind;
use crate::error::LpError;
use crate::model::{Model, Sense, VarId};
use crate::simplex::{self, Basis, RestartKind, SimplexOptions, Solution};
use crate::INT_TOL;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Options for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Maximum number of explored nodes.
    pub max_nodes: usize,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Stop when `|incumbent - bound| <= abs_gap`.
    pub abs_gap: f64,
    /// Stop when the relative gap falls below this value.
    pub rel_gap: f64,
    /// Basis engine used for every node LP relaxation.
    pub engine: EngineKind,
    /// Run the LP presolve on the cold root relaxation and on the simplex's
    /// cold retry after a numerical failure. Warm-started nodes skip it:
    /// their parent basis addresses the full column space.
    pub presolve: bool,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            max_nodes: 20_000,
            time_limit: Duration::from_secs(60),
            abs_gap: 1e-6,
            rel_gap: 1e-6,
            engine: EngineKind::default(),
            presolve: true,
        }
    }
}

/// Terminal status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal within the gap tolerances.
    Optimal,
    /// An incumbent exists but optimality was not proven (budget ran out).
    Feasible,
    /// No integer-feasible point exists.
    Infeasible,
    /// Budget ran out before any incumbent was found.
    Unknown,
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MipResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Best integer-feasible point found (structural variables).
    pub x: Vec<f64>,
    /// Objective of the incumbent (in the model's sense).
    pub objective: f64,
    /// Best proven bound on the optimum (lower bound for Min, upper for Max).
    pub bound: f64,
    /// Nodes explored.
    pub nodes: usize,
}

/// An open node of the search tree.
struct Node {
    /// Bound overrides for integer variables: `(var, lb, ub)`.
    fixes: Vec<(VarId, f64, f64)>,
    /// Branchings from the root.
    depth: usize,
    /// The parent's relaxation objective (minimization form): a lower bound
    /// on every point of this subtree.
    bound_min: f64,
    /// Creation order; unique per node.
    seq: usize,
    /// The parent's optimal basis, shared by both siblings. `None` at the
    /// root.
    warm: Option<Rc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum: the deepest node, then the smallest
        // minimization bound, then the newest.
        self.depth
            .cmp(&other.depth)
            .then_with(|| other.bound_min.partial_cmp(&self.bound_min).unwrap_or(Ordering::Equal))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Solve `work` with `fixes` applied, then restore the original bounds.
/// `Ok(None)` means the relaxation is infeasible. `on_relaxation` sees the
/// model with the overrides in place, its optimal solution, and how the
/// simplex used the warm basis.
fn solve_relaxation(
    work: &mut Model,
    fixes: &[(VarId, f64, f64)],
    opts: &SimplexOptions,
    warm: Option<&Basis>,
    on_relaxation: &mut impl FnMut(&Model, &Solution, RestartKind),
) -> Result<Option<(Solution, RestartKind)>, LpError> {
    let saved: Vec<(VarId, f64, f64)> = fixes
        .iter()
        .map(|&(v, _, _)| {
            let (l, u) = work.bounds(v);
            (v, l, u)
        })
        .collect();
    for &(v, l, u) in fixes {
        work.set_bounds(v, l, u);
    }
    let res = simplex::solve_kind(work, opts, warm);
    if let Ok((sol, kind)) = &res {
        on_relaxation(work, sol, *kind);
    }
    for &(v, l, u) in &saved {
        work.set_bounds(v, l, u);
    }
    match res {
        Ok(solved) => Ok(Some(solved)),
        Err(LpError::Infeasible) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Solve a MIP by branch and bound. The `model`'s integer variables are
/// those marked via [`Model::add_binary`]/[`Model::set_integer`].
///
/// Emits the counters `lp.mip.nodes` (node relaxations solved),
/// `lp.mip.cold_nodes` (child nodes whose parent basis the simplex
/// rejected) and `lp.mip.node_cap_hits` (runs stopped by `max_nodes`).
pub fn solve_mip(model: &Model, opts: &MipOptions) -> Result<MipResult, LpError> {
    branch_and_bound(model, opts, |_, _, _| {})
}

/// [`solve_mip`] with a hook called after every relaxation solve (nodes and
/// rounding probes) on the model with that relaxation's bounds applied.
pub(crate) fn branch_and_bound(
    model: &Model,
    opts: &MipOptions,
    mut on_relaxation: impl FnMut(&Model, &Solution, RestartKind),
) -> Result<MipResult, LpError> {
    let ints = model.integer_vars();
    if ints.is_empty() {
        let sol = model.solve()?;
        return Ok(MipResult {
            status: MipStatus::Optimal,
            x: sol.x,
            objective: sol.objective,
            bound: sol.objective,
            nodes: 1,
        });
    }

    let start = Instant::now();
    let min_sign = match model.sense() {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };

    let mut work = model.clone();
    let simplex_opts = SimplexOptions {
        engine: opts.engine,
        presolve: opts.presolve,
        ..SimplexOptions::default()
    };

    let mut incumbent: Option<(Vec<f64>, f64)> = None; // (x, obj_min_form)
    let mut heap = BinaryHeap::new();
    let mut seq = 0usize;
    let mut nodes = 0usize;
    let mut cold_nodes = 0u64;
    let mut capped = false;

    heap.push(Node {
        fixes: Vec::new(),
        depth: 0,
        bound_min: f64::NEG_INFINITY,
        seq,
        warm: None,
    });

    while let Some(node) = heap.pop() {
        if let Some((_, inc)) = &incumbent {
            if node.bound_min >= *inc - opts.abs_gap {
                continue; // dominated subtree
            }
        }
        if nodes >= opts.max_nodes || start.elapsed() > opts.time_limit {
            capped = nodes >= opts.max_nodes;
            heap.push(node); // still open: it bounds the optimum below
            break;
        }
        nodes += 1;
        let warm = node.warm.as_deref();
        let (sol, kind) =
            match solve_relaxation(&mut work, &node.fixes, &simplex_opts, warm, &mut on_relaxation)? {
                Some(solved) => solved,
                None => continue,
            };
        if warm.is_some() && kind == RestartKind::Cold {
            cold_nodes += 1;
        }
        let obj_min = min_sign * sol.objective;
        if let Some((_, inc)) = &incumbent {
            if obj_min >= *inc - opts.abs_gap {
                continue; // dominated subtree
            }
        }

        // Find the most fractional integer variable.
        let mut branch: Option<(VarId, f64)> = None;
        let mut best_frac = INT_TOL;
        for &v in &ints {
            let val = sol.x[v.index()];
            let frac = (val - val.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch = Some((v, val));
            }
        }

        let Some((v, val)) = branch else {
            // Integer feasible (and better than the incumbent, or it would
            // have been pruned above).
            incumbent = Some((sol.x, obj_min));
            continue;
        };

        // Rounding heuristic at shallow depths: fix all ints to the rounded
        // relaxation values and test feasibility, warm from this node.
        if node.depth <= 1 && incumbent.is_none() {
            let fixes: Vec<(VarId, f64, f64)> = ints
                .iter()
                .map(|&iv| {
                    let (lo, hi) = work.bounds(iv);
                    let r = sol.x[iv.index()].round();
                    let r = if r > hi {
                        hi.floor()
                    } else if r < lo {
                        lo.ceil()
                    } else {
                        r
                    };
                    (iv, r, r)
                })
                .collect();
            let probe =
                solve_relaxation(&mut work, &fixes, &simplex_opts, Some(&sol.basis), &mut on_relaxation)?;
            if let Some((h, _)) = probe {
                incumbent = Some((h.x, min_sign * h.objective));
            }
        }

        let basis = Rc::new(sol.basis);
        let floor = val.floor();
        let (vlo, vhi) = work.bounds(v);
        for (lo, hi) in [(vlo, floor), (floor + 1.0, vhi)] {
            if lo > hi {
                continue;
            }
            let mut fixes = node.fixes.clone();
            // Tighten rather than duplicate an existing override.
            if let Some(f) = fixes.iter_mut().find(|f| f.0 == v) {
                f.1 = f.1.max(lo);
                f.2 = f.2.min(hi);
                if f.1 > f.2 {
                    continue;
                }
            } else {
                fixes.push((v, lo, hi));
            }
            seq += 1;
            heap.push(Node {
                fixes,
                depth: node.depth + 1,
                bound_min: obj_min,
                seq,
                warm: Some(Rc::clone(&basis)),
            });
        }
    }

    flexile_obs::add("lp.mip.nodes", nodes as u64);
    flexile_obs::add("lp.mip.cold_nodes", cold_nodes);
    if capped {
        flexile_obs::add("lp.mip.node_cap_hits", 1);
    }

    // The optimum lies in the incumbent or in an open subtree.
    let frontier_min = heap.iter().map(|n| n.bound_min).fold(f64::INFINITY, f64::min);
    match incumbent {
        Some((x, obj_min)) => {
            let proven_min = frontier_min.min(obj_min);
            let gap = obj_min - proven_min;
            let status = if heap.is_empty()
                || gap <= opts.abs_gap
                || gap <= opts.rel_gap * obj_min.abs().max(1.0)
            {
                MipStatus::Optimal
            } else {
                MipStatus::Feasible
            };
            Ok(MipResult {
                status,
                objective: min_sign * obj_min,
                bound: min_sign * proven_min,
                x,
                nodes,
            })
        }
        None => Ok(MipResult {
            status: if heap.is_empty() { MipStatus::Infeasible } else { MipStatus::Unknown },
            objective: f64::NAN,
            bound: min_sign * frontier_min,
            x: Vec::new(),
            nodes,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack() {
        // max 10a + 6b + 4c st 5a + 4b + 3c <= 10, binaries -> a=b=1 (16)
        let mut m = Model::new(Sense::Max);
        let a = m.add_binary("a", 10.0);
        let b = m.add_binary("b", 6.0);
        let c = m.add_binary("c", 4.0);
        m.add_row_le(&[(a, 5.0), (b, 4.0), (c, 3.0)], 10.0);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 16.0).abs() < 1e-6);
        assert!((r.x[a.index()] - 1.0).abs() < 1e-6);
        assert!((r.x[b.index()] - 1.0).abs() < 1e-6);
        assert!(r.x[c.index()].abs() < 1e-6);
    }

    #[test]
    fn pure_lp_shortcut() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        m.add_row_ge(&[(x, 1.0)], 2.5);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 2.5).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_not_valid() {
        // min x st 2x >= 3, x integer -> x = 2 (not 1.5 rounded to 1/2 naive)
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.set_integer(x);
        m.add_row_ge(&[(x, 2.0)], 3.0);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        // binaries a + b = 1 and a + b = 2 cannot both hold... use bounds:
        let mut m = Model::new(Sense::Min);
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        m.add_row_eq(&[(a, 1.0), (b, 1.0)], 1.0);
        m.add_row_ge(&[(a, 1.0), (b, 1.0)], 2.0);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn covering_problem() {
        // min a + b + c st a+b>=1, b+c>=1, a+c>=1, binaries -> 2
        let mut m = Model::new(Sense::Min);
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        let c = m.add_binary("c", 1.0);
        m.add_row_ge(&[(a, 1.0), (b, 1.0)], 1.0);
        m.add_row_ge(&[(b, 1.0), (c, 1.0)], 1.0);
        m.add_row_ge(&[(a, 1.0), (c, 1.0)], 1.0);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn warm_nodes_match_cold_resolves() {
        // A two-row knapsack with continuous slack-like columns: deep enough
        // to branch repeatedly, so most nodes restart from a parent basis.
        let mut m = Model::new(Sense::Max);
        let w = [7.0, 5.0, 9.0, 4.0, 6.0, 8.0, 3.0, 5.0, 6.0, 7.0];
        let v = [11.0, 8.0, 13.0, 5.0, 9.0, 12.0, 4.0, 7.0, 10.0, 11.0];
        let xs: Vec<VarId> =
            (0..w.len()).map(|j| m.add_binary(&format!("x{j}"), v[j])).collect();
        let y = m.add_var("y", 0.0, 3.0, 0.5);
        let row: Vec<(VarId, f64)> = xs.iter().copied().zip(w).chain([(y, 1.0)]).collect();
        m.add_row_le(&row, 31.0);
        let row2: Vec<(VarId, f64)> = xs.iter().copied().zip(v.iter().rev().copied()).collect();
        m.add_row_le(&row2, 45.0);

        let cold_opts = SimplexOptions::default();
        let mut warm_solves = 0;
        let r = branch_and_bound(&m, &MipOptions::default(), |node, sol, kind| {
            if kind == RestartKind::Cold {
                return;
            }
            warm_solves += 1;
            let cold = node.solve_with(&cold_opts, None).expect("cold re-solve");
            assert!(
                (sol.objective - cold.objective).abs() <= 1e-9,
                "warm node objective {} vs cold {}",
                sol.objective,
                cold.objective
            );
        })
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(warm_solves >= 10, "only {warm_solves} warm node solves");
    }

    #[test]
    fn node_cap_keeps_open_nodes_in_the_bound() {
        let mut m = Model::new(Sense::Max);
        let xs: Vec<VarId> = (0..8).map(|j| m.add_binary(&format!("x{j}"), 3.0 + j as f64)).collect();
        let row: Vec<(VarId, f64)> = xs.iter().map(|&x| (x, 2.0 + x.index() as f64)).collect();
        m.add_row_le(&row, 17.5);
        let exact = solve_mip(&m, &MipOptions::default()).unwrap();
        let capped = solve_mip(&m, &MipOptions { max_nodes: 2, ..MipOptions::default() }).unwrap();
        assert_eq!(capped.nodes, 2);
        // Truncation may lose the optimum but never its proof of a bound.
        assert!(capped.bound >= exact.objective - 1e-9);
        if capped.status == MipStatus::Feasible {
            assert!(capped.objective <= exact.objective + 1e-9);
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2i + x st i <= 2.5 (int), x <= 1.7, i + x <= 3.5
        let mut m = Model::new(Sense::Max);
        let i = m.add_var("i", 0.0, 2.5, 2.0);
        m.set_integer(i);
        let x = m.add_var("x", 0.0, 1.7, 1.0);
        m.add_row_le(&[(i, 1.0), (x, 1.0)], 3.5);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        // i=2, x=1.5 -> 5.5
        assert!((r.objective - 5.5).abs() < 1e-6);
    }
}
