//! Limited-memory BFGS with projected box bounds.
//!
//! This is the workhorse behind GP hyperparameter training (minimizing the
//! negative log marginal likelihood in log-hyperparameter space). The
//! implementation is the standard two-loop recursion with an Armijo
//! backtracking line search; box bounds are handled by projecting both the
//! iterates and the search direction (a gradient-projection scheme that is
//! simple and robust for the smooth, low-dimensional problems we solve).
//!
//! The line search reads only objective values, so the objective is split
//! into a value half and a deferred gradient half
//! ([`Lbfgs::minimize_lazy`]): every probe computes the value, and the
//! gradient is finished only at the start point and at each accepted step.

use crate::{Bounds, OptResult};
use std::collections::VecDeque;

/// L-BFGS minimizer configuration.
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, lbfgs::Lbfgs};
///
/// // Minimize the 2-D Rosenbrock function with analytic gradients.
/// let fg = |x: &[f64]| {
///     let v = (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
///     let g = vec![
///         -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
///         200.0 * (x[1] - x[0] * x[0]),
///     ];
///     (v, g)
/// };
/// let bounds = Bounds::symmetric(2, 10.0);
/// let r = Lbfgs::new().with_max_iters(1000).minimize(&fg, &[-1.2, 1.0], &bounds);
/// assert!((r.x[0] - 1.0).abs() < 1e-4);
/// assert!((r.x[1] - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct Lbfgs {
    memory: usize,
    max_iters: usize,
    grad_tol: f64,
    f_tol: f64,
    max_line_search: usize,
}

impl Default for Lbfgs {
    fn default() -> Self {
        Lbfgs {
            memory: 8,
            max_iters: 200,
            grad_tol: 1e-6,
            f_tol: 1e-12,
            max_line_search: 30,
        }
    }
}

impl Lbfgs {
    /// Creates an optimizer with default settings (memory 8, 200 iterations,
    /// gradient tolerance `1e-6`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the history length of the two-loop recursion.
    pub fn with_memory(mut self, m: usize) -> Self {
        self.memory = m.max(1);
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }

    /// Sets the projected-gradient infinity-norm tolerance.
    pub fn with_grad_tol(mut self, tol: f64) -> Self {
        self.grad_tol = tol;
        self
    }

    /// Sets the relative objective-decrease tolerance.
    pub fn with_f_tol(mut self, tol: f64) -> Self {
        self.f_tol = tol;
        self
    }

    /// Minimizes `fg` (returning `(value, gradient)`) from `x0` inside
    /// `bounds`: [`Lbfgs::minimize_lazy`] with the gradient computed eagerly
    /// and an identity finisher.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize<F>(&self, fg: &F, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        F: Fn(&[f64]) -> (f64, Vec<f64>) + ?Sized,
    {
        self.minimize_lazy(fg, &|_: &[f64], g: Vec<f64>| g, x0, bounds)
    }

    /// Minimizes an objective whose gradient is deferred: `value(x)` returns
    /// the objective value and a state `S`, and `finish(x, state)` turns the
    /// state of the same `x` into the gradient there.
    ///
    /// `finish` runs exactly once at the start point and once per accepted
    /// step; a line-search probe that is rejected has its state dropped
    /// unfinished, so at most one state is alive at a time.
    /// [`OptResult::evaluations`] counts `value` calls.
    ///
    /// Non-finite objective values are treated as `+inf`, which the line
    /// search simply backs away from; this matters for NLML surfaces that
    /// blow up when a kernel matrix loses positive definiteness.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize_lazy<S, F, G>(
        &self,
        value: &F,
        finish: &G,
        x0: &[f64],
        bounds: &Bounds,
    ) -> OptResult
    where
        F: Fn(&[f64]) -> (f64, S) + ?Sized,
        G: Fn(&[f64], S) -> Vec<f64> + ?Sized,
    {
        assert_eq!(x0.len(), bounds.dim(), "x0 dimension mismatch");
        let n = x0.len();
        let mut x = bounds.clamp(x0);
        let (mut f, state) = value(&x);
        let mut g = finish(&x, state);
        let mut evals = 1usize;
        if !f.is_finite() {
            f = f64::INFINITY;
        }

        let mut s_hist: VecDeque<Vec<f64>> = VecDeque::with_capacity(self.memory);
        let mut y_hist: VecDeque<Vec<f64>> = VecDeque::with_capacity(self.memory);
        let mut rho_hist: VecDeque<f64> = VecDeque::with_capacity(self.memory);
        let mut converged = false;
        let mut iters = 0usize;

        for it in 0..self.max_iters {
            iters = it + 1;
            // Projected-gradient convergence test: at active bounds, only the
            // inward gradient component counts.
            let pg = projected_gradient(&x, &g, bounds);
            if mfbo_linalg::infinity_norm(&pg) < self.grad_tol {
                converged = true;
                break;
            }

            // Two-loop recursion on the *projected* gradient so that active
            // bounds do not pollute the search direction (gradient-
            // projection L-BFGS).
            let mut q = pg.clone();
            let k = s_hist.len();
            let mut alpha = vec![0.0; k];
            for i in (0..k).rev() {
                alpha[i] = rho_hist[i] * mfbo_linalg::dot(&s_hist[i], &q);
                mfbo_linalg::axpy(-alpha[i], &y_hist[i], &mut q);
            }
            // Initial Hessian scaling gamma = s'y / y'y.
            if k > 0 {
                let sy = mfbo_linalg::dot(&s_hist[k - 1], &y_hist[k - 1]);
                let yy = mfbo_linalg::dot(&y_hist[k - 1], &y_hist[k - 1]);
                if yy > 0.0 && sy > 0.0 {
                    let gamma = sy / yy;
                    for qi in q.iter_mut() {
                        *qi *= gamma;
                    }
                }
            }
            for i in 0..k {
                let beta = rho_hist[i] * mfbo_linalg::dot(&y_hist[i], &q);
                mfbo_linalg::axpy(alpha[i] - beta, &s_hist[i], &mut q);
            }
            // Descent direction.
            let mut d: Vec<f64> = q.iter().map(|v| -v).collect();
            // Fall back to projected steepest descent if the direction is
            // not a descent direction (can happen right after a curvature
            // reset).
            if mfbo_linalg::dot(&d, &pg) >= 0.0 {
                d = pg.iter().map(|v| -v).collect();
            }

            // Armijo backtracking line search with projection onto bounds.
            let c1 = 1e-4;
            let mut line_search = |d: &[f64]| -> Option<(Vec<f64>, f64, S)> {
                let g_dot_d = mfbo_linalg::dot(&pg, d);
                let mut step = 1.0;
                let mut x_new = x.clone();
                for _ in 0..self.max_line_search {
                    for i in 0..n {
                        x_new[i] = x[i] + step * d[i];
                    }
                    bounds.clamp_in_place(&mut x_new);
                    let (fv, state) = value(&x_new);
                    evals += 1;
                    // Armijo on the projected step (use the actual
                    // displacement when the direction was not provably a
                    // descent direction).
                    let actual: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
                    let pred = if g_dot_d < 0.0 {
                        c1 * step * g_dot_d
                    } else {
                        -c1 * mfbo_linalg::norm2(&actual)
                    };
                    if fv.is_finite() && fv <= f + pred {
                        return Some((x_new, fv, state));
                    }
                    // A rejected probe's state is dropped unfinished here.
                    step *= 0.5;
                }
                None
            };
            let attempt = line_search(&d).or_else(|| {
                // The quasi-Newton direction can be useless when the active
                // set just changed; reset to projected steepest descent.
                let sd: Vec<f64> = pg.iter().map(|v| -v).collect();
                let r = line_search(&sd);
                if r.is_some() {
                    s_hist.clear();
                    y_hist.clear();
                    rho_hist.clear();
                }
                r
            });
            let (x_new, f_new, state) = match attempt {
                Some(v) => v,
                None => {
                    // Both directions failed: we are at a (projected)
                    // stationary point to within line-search resolution.
                    converged = mfbo_linalg::infinity_norm(&pg) < self.grad_tol * 10.0;
                    break;
                }
            };

            let g_new = finish(&x_new, state);
            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            // Curvature pairs use projected gradients so the memory stays
            // consistent with the projected search directions.
            let pg_new = projected_gradient(&x_new, &g_new, bounds);
            let yv: Vec<f64> = pg_new.iter().zip(&pg).map(|(a, b)| a - b).collect();
            let sy = mfbo_linalg::dot(&s, &yv);
            // Only keep pairs with positive curvature (standard safeguard).
            if sy > 1e-12 * mfbo_linalg::norm2(&s) * mfbo_linalg::norm2(&yv) {
                if s_hist.len() == self.memory {
                    s_hist.pop_front();
                    y_hist.pop_front();
                    rho_hist.pop_front();
                }
                rho_hist.push_back(1.0 / sy);
                s_hist.push_back(s);
                y_hist.push_back(yv);
            }

            let f_prev = f;
            x = x_new;
            f = f_new;
            g = g_new;

            if (f_prev - f).abs() <= self.f_tol * f_prev.abs().max(1.0) {
                converged = true;
                break;
            }
        }

        OptResult {
            x,
            value: f,
            evaluations: evals,
            iterations: iters,
            converged,
        }
    }
}

/// Gradient with components pointing out of the feasible box zeroed.
fn projected_gradient(x: &[f64], g: &[f64], bounds: &Bounds) -> Vec<f64> {
    let eps = 1e-12;
    x.iter()
        .zip(g)
        .zip(bounds.lower().iter().zip(bounds.upper()))
        .map(|((xi, gi), (l, u))| {
            let blocked_low = (xi - l).abs() < eps && *gi > 0.0;
            let blocked_high = (xi - u).abs() < eps && *gi < 0.0;
            if blocked_low || blocked_high {
                0.0
            } else {
                *gi
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numgrad::with_central_gradient;
    use std::cell::{Cell, RefCell};

    #[test]
    fn quadratic_bowl() {
        let fg = |x: &[f64]| {
            let v = x.iter().map(|v| v * v).sum::<f64>();
            let g = x.iter().map(|v| 2.0 * v).collect();
            (v, g)
        };
        let b = Bounds::symmetric(4, 10.0);
        let r = Lbfgs::new().minimize(&fg, &[3.0, -2.0, 1.0, 5.0], &b);
        assert!(r.converged);
        assert!(r.value < 1e-10);
    }

    #[test]
    fn rosenbrock_10d_with_numeric_gradient() {
        let f = |x: &[f64]| {
            x.windows(2)
                .map(|w| (1.0 - w[0]).powi(2) + 100.0 * (w[1] - w[0] * w[0]).powi(2))
                .sum::<f64>()
        };
        let fg = with_central_gradient(f);
        let b = Bounds::symmetric(6, 5.0);
        let r = Lbfgs::new()
            .with_max_iters(2000)
            .minimize(&fg, &[0.0; 6], &b);
        assert!(r.value < 1e-5, "value = {}", r.value);
    }

    #[test]
    fn respects_active_bounds() {
        // Unconstrained optimum at (-3, -3); box forces x >= 0.
        let fg = |x: &[f64]| {
            let v = (x[0] + 3.0).powi(2) + (x[1] + 3.0).powi(2);
            (v, vec![2.0 * (x[0] + 3.0), 2.0 * (x[1] + 3.0)])
        };
        let b = Bounds::new(vec![0.0, 0.0], vec![5.0, 5.0]);
        let r = Lbfgs::new().minimize(&fg, &[2.0, 4.0], &b);
        assert!(r.x[0].abs() < 1e-6);
        assert!(r.x[1].abs() < 1e-6);
        assert!((r.value - 18.0).abs() < 1e-8);
    }

    #[test]
    fn survives_non_finite_regions() {
        // log(x) is -inf for x <= 0; optimizer must stay in the finite
        // region and find the minimum of x - ln(x) at x = 1.
        let fg = |x: &[f64]| {
            let v = x[0] - x[0].ln();
            (v, vec![1.0 - 1.0 / x[0]])
        };
        let b = Bounds::new(vec![1e-12], vec![10.0]);
        let r = Lbfgs::new().minimize(&fg, &[5.0], &b);
        assert!((r.x[0] - 1.0).abs() < 1e-5, "x = {:?}", r.x);
    }

    #[test]
    fn starting_point_outside_bounds_is_clamped() {
        let fg = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        let b = Bounds::new(vec![1.0], vec![2.0]);
        let r = Lbfgs::new().minimize(&fg, &[100.0], &b);
        assert!((r.x[0] - 1.0).abs() < 1e-9);
    }

    /// Log of a deferred-gradient objective: every `value` call and every
    /// finished state, plus the states dropped unfinished.
    #[derive(Default)]
    struct Log {
        values: RefCell<Vec<Vec<f64>>>,
        finished: RefCell<Vec<Vec<f64>>>,
        live: Cell<usize>,
        dropped: Cell<usize>,
    }

    /// The state of one `value` call: the gradient it would finish to.
    struct Pending<'a> {
        x: Vec<f64>,
        g: Vec<f64>,
        done: bool,
        log: &'a Log,
    }

    impl Drop for Pending<'_> {
        fn drop(&mut self) {
            self.log.live.set(self.log.live.get() - 1);
            if !self.done {
                self.log.dropped.set(self.log.dropped.get() + 1);
            }
        }
    }

    /// Runs `minimize_lazy` on `fg` split into a logged value half and a
    /// logged finisher, asserting on the way that no two states are ever
    /// alive together and that a state is finished right after the value
    /// call that made it, at the same point.
    fn run_logged<F>(fg: F, x0: &[f64], b: &Bounds, lbfgs: &Lbfgs) -> (OptResult, Log)
    where
        F: Fn(&[f64]) -> (f64, Vec<f64>),
    {
        let log = Log::default();
        let value = |x: &[f64]| {
            assert_eq!(log.live.get(), 0, "a state is alive at a new value call");
            log.live.set(1);
            log.values.borrow_mut().push(x.to_vec());
            let (v, g) = fg(x);
            let state = Pending {
                x: x.to_vec(),
                g,
                done: false,
                log: &log,
            };
            (v, state)
        };
        let finish = |x: &[f64], mut state: Pending<'_>| {
            assert_eq!(state.x, x, "state finished at another point");
            assert_eq!(
                log.values.borrow().last().map(Vec::as_slice),
                Some(x),
                "state finished after a later value call"
            );
            log.finished.borrow_mut().push(x.to_vec());
            state.done = true;
            std::mem::take(&mut state.g)
        };
        let r = lbfgs.minimize_lazy(&value, &finish, x0, b);
        assert_eq!(log.live.get(), 0);
        (r, log)
    }

    #[test]
    fn gradient_finished_only_at_start_and_accepted_steps() {
        // x² from 4: the unit step lands on -4 (no decrease, rejected), the
        // half step on 0 (accepted), where the gradient vanishes.
        let fg = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        let b = Bounds::symmetric(1, 10.0);
        let (r, log) = run_logged(fg, &[4.0], &b, &Lbfgs::new());
        assert_eq!(*log.values.borrow(), vec![vec![4.0], vec![-4.0], vec![0.0]]);
        assert_eq!(*log.finished.borrow(), vec![vec![4.0], vec![0.0]]);
        assert_eq!(log.dropped.get(), 1);
        assert_eq!(r.evaluations, 3);
        assert_eq!(r.x, vec![0.0]);
    }

    #[test]
    fn lazy_counts_match_value_calls_on_rosenbrock() {
        let fg = |x: &[f64]| {
            let v = (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
            let g = vec![
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ];
            (v, g)
        };
        let b = Bounds::symmetric(2, 10.0);
        let lbfgs = Lbfgs::new().with_max_iters(1000);
        let (r, log) = run_logged(fg, &[-1.2, 1.0], &b, &lbfgs);
        let values = log.values.borrow().len();
        let finished = log.finished.borrow();
        assert_eq!(r.evaluations, values);
        assert_eq!(finished.len() + log.dropped.get(), values);
        assert!(log.dropped.get() > 0, "no probe was rejected");
        assert_eq!(finished.last(), Some(&r.x));
        // The eager path walks the same trajectory with the same count.
        let eager = lbfgs.minimize(&fg, &[-1.2, 1.0], &b);
        assert_eq!(eager, r);
    }

    #[test]
    fn reports_evaluation_counts() {
        let fg = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        let b = Bounds::symmetric(1, 10.0);
        let r = Lbfgs::new().minimize(&fg, &[4.0], &b);
        assert!(r.evaluations >= 2);
        assert!(r.iterations >= 1);
    }
}
