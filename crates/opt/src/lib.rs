//! Optimizers and sampling designs for the `analog-mfbo` workspace.
//!
//! The DAC'19 multi-fidelity Bayesian optimization flow needs three distinct
//! kinds of inner optimizer, all provided here:
//!
//! * **L-BFGS** ([`lbfgs::Lbfgs`]) with projected box bounds — used to
//!   minimize the GP negative log marginal likelihood (with analytic
//!   gradients, finished only at accepted steps). Objectives without an
//!   analytic gradient can use numeric ones via
//!   [`numgrad::central_gradient`]; no acquisition path does, MSP searches
//!   with Nelder–Mead.
//! * **Nelder–Mead** ([`neldermead::NelderMead`]) — a derivative-free local
//!   searcher used inside the multiple-starting-point strategy where the
//!   Monte-Carlo acquisition surface is noisy.
//! * **Differential evolution** ([`de::DifferentialEvolution`]) — both the DE
//!   baseline of the paper and the evolutionary engine inside GASPAD.
//!
//! On top of these, [`msp::MultiStart`] implements the paper's §4.1
//! multiple-starting-point strategy, including the biased start distribution
//! (a fraction of starts near the low- and high-fidelity incumbents), and
//! [`sampling`] provides Latin-hypercube and uniform designs for the initial
//! GP training sets.
//!
//! # Example: minimizing a quadratic under box bounds
//!
//! ```
//! use mfbo_opt::{Bounds, lbfgs::Lbfgs, numgrad::with_central_gradient};
//!
//! let bounds = Bounds::symmetric(2, 5.0);
//! let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2);
//! let result = Lbfgs::new().minimize(&with_central_gradient(f), &[0.0, 0.0], &bounds);
//! assert!((result.x[0] - 1.0).abs() < 1e-5);
//! assert!((result.x[1] + 2.0).abs() < 1e-5);
//! ```

#![deny(missing_docs)]

mod bounds;
pub mod de;
pub mod lbfgs;
pub mod msp;
pub mod neldermead;
pub mod numgrad;
pub mod sampling;

pub use bounds::Bounds;

/// Result of a local or global minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at [`OptResult::x`].
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
    /// Number of iterations of the outer loop.
    pub iterations: usize,
    /// Whether the convergence tolerance (rather than the iteration cap)
    /// terminated the run.
    pub converged: bool,
}
