//! Kernel combinators: sums and products of kernels.
//!
//! Sums and products of positive-definite kernels are positive definite,
//! so these combinators let users compose richer priors (e.g.
//! `SE + Matérn` for multi-scale structure, or `SE × periodic` families)
//! without writing a new kernel type. The NARGP fusion kernel
//! ([`crate::kernel::NargpKernel`]) is a hand-specialized instance of the
//! same idea — `k1·k2 + k3` over split input coordinates — kept separate
//! because it routes *different slices* of the input to each factor.
//!
//! Parameter layout of a combinator: the left kernel's parameters followed
//! by the right kernel's.

use crate::kernel::Kernel;

/// Sum of two kernels over the same input: `k(a,b) = k_l(a,b) + k_r(a,b)`.
///
/// # Examples
///
/// ```
/// use mfbo_gp::kernel::{Kernel, Matern52, SquaredExponential};
/// use mfbo_gp::combinators::SumKernel;
///
/// let k = SumKernel::new(SquaredExponential::new(2), Matern52::new(2));
/// let p = k.default_params();
/// assert_eq!(p.len(), k.num_params());
/// assert!(k.eval(&p, &[0.1, 0.2], &[0.1, 0.2]) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SumKernel<L, R> {
    left: L,
    right: R,
}

impl<L: Kernel, R: Kernel> SumKernel<L, R> {
    /// Combines two kernels over the same input dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if the input dimensions differ.
    pub fn new(left: L, right: R) -> Self {
        assert_eq!(
            left.input_dim(),
            right.input_dim(),
            "summed kernels must share the input dimension"
        );
        SumKernel { left, right }
    }
}

impl<L: Kernel, R: Kernel> Kernel for SumKernel<L, R> {
    type PairRecord = ();

    fn input_dim(&self) -> usize {
        self.left.input_dim()
    }

    fn num_params(&self) -> usize {
        self.left.num_params() + self.right.num_params()
    }

    fn eval(&self, p: &[f64], a: &[f64], b: &[f64]) -> f64 {
        let (pl, pr) = p.split_at(self.left.num_params());
        self.left.eval(pl, a, b) + self.right.eval(pr, a, b)
    }

    fn eval_grad(&self, p: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        let nl = self.left.num_params();
        let (pl, pr) = p.split_at(nl);
        let (gl, gr) = grad.split_at_mut(nl);
        self.left.eval_grad(pl, a, b, gl) + self.right.eval_grad(pr, a, b, gr)
    }

    fn default_params(&self) -> Vec<f64> {
        let mut p = self.left.default_params();
        p.extend(self.right.default_params());
        p
    }

    fn param_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let (mut lo, mut hi) = self.left.param_bounds();
        let (rlo, rhi) = self.right.param_bounds();
        lo.extend(rlo);
        hi.extend(rhi);
        (lo, hi)
    }
}

/// Product of two kernels over the same input:
/// `k(a,b) = k_l(a,b) · k_r(a,b)`.
#[derive(Debug, Clone)]
pub struct ProductKernel<L, R> {
    left: L,
    right: R,
}

impl<L: Kernel, R: Kernel> ProductKernel<L, R> {
    /// Combines two kernels over the same input dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if the input dimensions differ.
    pub fn new(left: L, right: R) -> Self {
        assert_eq!(
            left.input_dim(),
            right.input_dim(),
            "multiplied kernels must share the input dimension"
        );
        ProductKernel { left, right }
    }
}

impl<L: Kernel, R: Kernel> Kernel for ProductKernel<L, R> {
    type PairRecord = ();

    fn input_dim(&self) -> usize {
        self.left.input_dim()
    }

    fn num_params(&self) -> usize {
        self.left.num_params() + self.right.num_params()
    }

    fn eval(&self, p: &[f64], a: &[f64], b: &[f64]) -> f64 {
        let (pl, pr) = p.split_at(self.left.num_params());
        self.left.eval(pl, a, b) * self.right.eval(pr, a, b)
    }

    fn eval_grad(&self, p: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        let nl = self.left.num_params();
        let (pl, pr) = p.split_at(nl);
        let (gl, gr) = grad.split_at_mut(nl);
        let kl = self.left.eval_grad(pl, a, b, gl);
        let kr = self.right.eval_grad(pr, a, b, gr);
        // Product rule.
        for g in gl.iter_mut() {
            *g *= kr;
        }
        for g in gr.iter_mut() {
            *g *= kl;
        }
        kl * kr
    }

    fn default_params(&self) -> Vec<f64> {
        let mut p = self.left.default_params();
        p.extend(self.right.default_params());
        p
    }

    fn param_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let (mut lo, mut hi) = self.left.param_bounds();
        let (rlo, rhi) = self.right.param_bounds();
        lo.extend(rlo);
        hi.extend(rhi);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, SquaredExponential};
    use crate::{Gp, GpConfig};
    use mfbo_linalg::{Cholesky, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_grad<K: Kernel>(k: &K, p: &[f64], a: &[f64], b: &[f64]) {
        let mut grad = vec![0.0; k.num_params()];
        let v = k.eval_grad(p, a, b, &mut grad);
        assert!((v - k.eval(p, a, b)).abs() < 1e-14);
        let h = 1e-6;
        for j in 0..k.num_params() {
            let mut pp = p.to_vec();
            pp[j] += h;
            let fp = k.eval(&pp, a, b);
            pp[j] -= 2.0 * h;
            let fm = k.eval(&pp, a, b);
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - grad[j]).abs() < 1e-5 * (1.0 + num.abs()),
                "param {j}: numeric {num} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn sum_is_sum() {
        let se = SquaredExponential::new(2);
        let ma = Matern52::new(2);
        let k = SumKernel::new(se.clone(), ma.clone());
        let p = k.default_params();
        let (pl, pr) = p.split_at(se.num_params());
        let a = [0.1, 0.7];
        let b = [0.4, 0.2];
        assert!((k.eval(&p, &a, &b) - (se.eval(pl, &a, &b) + ma.eval(pr, &a, &b))).abs() < 1e-15);
    }

    #[test]
    fn product_is_product() {
        let se = SquaredExponential::new(1);
        let ma = Matern52::new(1);
        let k = ProductKernel::new(se.clone(), ma.clone());
        let p = k.default_params();
        let (pl, pr) = p.split_at(se.num_params());
        let a = [0.3];
        let b = [0.9];
        assert!((k.eval(&p, &a, &b) - se.eval(pl, &a, &b) * ma.eval(pr, &a, &b)).abs() < 1e-15);
    }

    #[test]
    fn combinator_gradients_match_finite_differences() {
        let sum = SumKernel::new(SquaredExponential::new(2), Matern52::new(2));
        check_grad(&sum, &sum.default_params(), &[0.1, 0.9], &[0.5, 0.3]);
        let prod = ProductKernel::new(SquaredExponential::new(2), Matern52::new(2));
        let mut p = prod.default_params();
        p[0] = 0.2;
        p[4] = -0.3;
        check_grad(&prod, &p, &[0.1, 0.9], &[0.5, 0.3]);
    }

    #[test]
    fn composed_gram_is_psd() {
        let k = SumKernel::new(
            ProductKernel::new(SquaredExponential::new(1), Matern52::new(1)),
            SquaredExponential::new(1),
        );
        let p = k.default_params();
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let g = Matrix::from_fn(9, 9, |i, j| k.eval(&p, &xs[i], &xs[j]));
        assert!(g.is_symmetric(1e-12));
        assert!(Cholesky::new_with_jitter(&g, 1e-10, 1e-3).is_ok());
    }

    #[test]
    fn gp_trains_on_composed_kernel() {
        let xs: Vec<Vec<f64>> = (0..14).map(|i| vec![i as f64 / 13.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin() + 0.2 * x[0]).collect();
        let k = SumKernel::new(SquaredExponential::new(1), Matern52::new(1));
        let mut rng = StdRng::seed_from_u64(0);
        let gp = Gp::fit(k, xs.clone(), ys.clone(), &GpConfig::fast(), &mut rng).unwrap();
        let p = gp.predict(&xs[7]);
        assert!((p.mean - ys[7]).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "share the input dimension")]
    fn rejects_dimension_mismatch() {
        let _ = SumKernel::new(SquaredExponential::new(1), Matern52::new(2));
    }
}
