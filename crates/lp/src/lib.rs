//! # flexile-lp — linear and mixed-integer programming substrate
//!
//! A self-contained LP/MIP solver used by every optimization model in the
//! Flexile reproduction. The paper solves its models with Gurobi; no
//! full-featured pure-Rust LP solver is available offline, so this crate
//! implements one from scratch:
//!
//! * [`Model`] — a row/column model builder with per-variable bounds,
//!   `≤ / ≥ / =` rows and a linear objective.
//! * [`simplex`] — a bounded-variable two-phase revised simplex method over a
//!   pluggable [`basis`] engine: by default a sparse Markowitz LU
//!   factorization with product-form eta-file updates and periodic
//!   refactorization (the original dense explicit inverse remains selectable
//!   as a differential-testing oracle via [`EngineKind::Dense`]),
//!   devex candidate-list pricing with Dantzig and Bland fallbacks, a
//!   bound-flipping long-step dual ratio test, and warm starts from a
//!   previously optimal basis.
//! * [`presolve`] / [`crash`] — the cold-start accelerators: a reduce /
//!   postsolve pass (fixed- and free-column elimination, empty/singleton-row
//!   removal, bound tightening) with exact primal+dual recovery, and a
//!   CRASH(LTSF)-style bound-shift crash that starts phase 1 near-feasible.
//! * [`mip`] — a depth-first branch-and-bound solver for models with binary /
//!   integer variables: child nodes warm-start from the parent's basis, and
//!   a fix-and-resolve rounding heuristic finds incumbents.
//! * [`rowgen`] — a lazy-constraint driver: repeatedly solve, ask an oracle
//!   for violated rows, add them, and warm-start the next solve. Used for the
//!   large scenario-bundled LPs (Teavar, CVaR variants) whose full row set
//!   would dwarf the active set.
//! * [`budget`] / [`robust`] / [`fault`] — the robustness layer: iteration +
//!   wall-clock [`SolveBudget`]s, the [`solve_robust`] escalation ladder
//!   (warm → cold refactor → Bland safe mode → bound perturbation) with an
//!   auditable [`SolveReport`], and a deterministic [`FaultInjector`] for
//!   chaos-testing every failure path.
//!
//! The solver is exact up to a configurable feasibility/optimality tolerance
//! (default `1e-7`). With the sparse LU basis engine the per-pivot cost
//! scales with the factor fill rather than O(m²), so the basis dimension can
//! reach the low thousands; very large scenario-bundled LPs still go through
//! [`rowgen`] to keep the active row set small.
//!
//! ## Quick example
//!
//! ```
//! use flexile_lp::{Model, Sense};
//!
//! // max x + 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0
//! let mut m = Model::new(Sense::Max);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
//! m.add_row_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! m.add_row_le(&[(y, 1.0)], 3.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - 7.0).abs() < 1e-6); // x=1, y=3
//! ```

#![warn(missing_docs)]

pub mod basis;
pub mod budget;
pub mod crash;
pub mod error;
pub mod fault;
pub mod mip;
pub mod model;
pub mod presolve;
pub mod robust;
pub mod rowgen;
pub mod simplex;
pub mod sparse;

pub use basis::{BasisEngine, EngineKind};
pub use budget::SolveBudget;
pub use error::LpError;
pub use fault::{FaultInjector, FaultKind};
pub use mip::{solve_mip, MipOptions, MipResult, MipStatus};
pub use model::{Cmp, Model, RowId, Sense, VarId};
pub use robust::{solve_robust, RobustOptions, RobustOutcome, Rung, RungAttempt, SolveReport};
pub use rowgen::{solve_with_rowgen, RowGenOptions, RowGenResult, RowSpec};
pub use simplex::{
    solve_rhs_batch, solve_rhs_restart, solve_rhs_restart_with, Basis, Pricing, RestartKind,
    RhsBatchMember, SimplexOptions, Solution, SolveScratch, SolveStatus,
};
pub use sparse::RhsBlock;

/// Default feasibility / optimality tolerance used across the workspace.
pub const TOL: f64 = 1e-7;

/// Default integrality tolerance for the MIP solver.
pub const INT_TOL: f64 = 1e-6;
