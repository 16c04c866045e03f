//! # soccar-smt
//!
//! A from-scratch bit-vector constraint solver for the SoCCAR reproduction.
//! SoCCAR's Algorithm 3 "solves the constraints on clock edge and reset
//! signal" after transforming them into equivalences (`posedge clk` →
//! `clk == 1`, `if (~reset)` → `reset == 0`); this crate is the solver that
//! discharges those formulas, with no external SMT dependency:
//!
//! * [`TermGraph`] — hash-consed bit-vector terms with constructor-time
//!   rewriting ([`term`]);
//! * [`bitblast::BitBlaster`] — Tseitin encoding into CNF via gate-level
//!   circuits (ripple-carry adders, barrel shifters, restoring dividers);
//! * [`sat::SatSolver`] — CDCL with two-watched literals, 1UIP learning,
//!   VSIDS, phase saving and Luby restarts;
//! * [`Solver`] — the word-level front-end. A one-shot check encodes only
//!   the assertions' cone, yet its [`Model`] still names every graph
//!   variable: one outside that support reads zero.
//!
//! # Examples
//!
//! ```
//! use soccar_smt::{CheckResult, Solver, TermGraph};
//!
//! // "Find an input that makes the reset-governed branch reachable":
//! // (state == BUSY) && (rst_n == 0)
//! let mut g = TermGraph::new();
//! let state = g.var("state", 3);
//! let rst_n = g.var("rst_n", 1);
//! let busy = g.const_u64(3, 5);
//! let zero = g.const_u64(1, 0);
//! let c1 = g.eq(state, busy);
//! let c2 = g.eq(rst_n, zero);
//! let goal = g.and(c1, c2);
//!
//! let mut solver = Solver::new();
//! solver.assert(goal);
//! assert!(solver.check(&g).is_sat());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitblast;
pub mod bv;
pub mod sat;
pub mod solver;
pub mod term;

pub use bv::BvVal;
pub use sat::{SolveBudget, SolverProfile};
pub use solver::{model_satisfies, BlastContext, CheckResult, Model, SolveStats, Solver};
pub use term::{Term, TermGraph, TermId};
