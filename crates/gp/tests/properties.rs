//! Property-based tests of the kernel and GP layers.

use mfbo_gp::kernel::{Kernel, Matern52, NargpKernel, SquaredExponential};
use mfbo_gp::{
    nlml, nlml_cached, nlml_state_grad, nlml_value_state, nlml_with_grad, nlml_with_grad_cached,
    DiffBatch, Gp, GpConfig, NlmlWorkspace,
};
use mfbo_linalg::{Cholesky, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: n points in [0,1]^dim, flattened.
fn points(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(0.0f64..1.0, n * dim)
        .prop_map(move |flat| flat.chunks(dim).map(|c| c.to_vec()).collect())
}

/// Builds the kernel Gram matrix.
fn gram<K: Kernel>(k: &K, p: &[f64], xs: &[Vec<f64>]) -> Matrix {
    Matrix::from_fn(xs.len(), xs.len(), |i, j| k.eval(p, &xs[i], &xs[j]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn se_gram_is_psd(xs in points(8, 2), logsf in -1.0f64..1.0, logl in -2.0f64..1.0) {
        let k = SquaredExponential::new(2);
        let p = vec![logsf, logl, logl];
        let g = gram(&k, &p, &xs);
        prop_assert!(g.is_symmetric(1e-12));
        // PSD: Cholesky with a whisker of jitter must succeed.
        prop_assert!(Cholesky::new_with_jitter(&g, 1e-10, 1e-3).is_ok());
    }

    #[test]
    fn matern_gram_is_psd(xs in points(7, 3), logsf in -1.0f64..1.0) {
        let k = Matern52::new(3);
        let p = vec![logsf, -0.5, 0.0, -1.0];
        let g = gram(&k, &p, &xs);
        prop_assert!(g.is_symmetric(1e-12));
        prop_assert!(Cholesky::new_with_jitter(&g, 1e-10, 1e-3).is_ok());
    }

    #[test]
    fn nargp_gram_is_psd(xs in points(7, 3)) {
        // Augmented input: 2 design dims + 1 fidelity feature.
        let k = NargpKernel::new(2);
        let p = k.default_params();
        let g = gram(&k, &p, &xs);
        prop_assert!(g.is_symmetric(1e-12));
        prop_assert!(Cholesky::new_with_jitter(&g, 1e-10, 1e-3).is_ok());
    }

    #[test]
    fn kernel_cauchy_schwarz(a in points(1, 2), b in points(1, 2), logl in -1.5f64..1.0) {
        // |k(a,b)| <= sqrt(k(a,a) k(b,b)) for any PSD kernel.
        let k = SquaredExponential::new(2);
        let p = vec![0.3, logl, logl];
        let kab = k.eval(&p, &a[0], &b[0]);
        let kaa = k.eval(&p, &a[0], &a[0]);
        let kbb = k.eval(&p, &b[0], &b[0]);
        prop_assert!(kab.abs() <= (kaa * kbb).sqrt() + 1e-12);
    }

    #[test]
    fn nlml_gradient_is_consistent(
        xs in points(9, 1),
        theta0 in -0.5f64..0.5,
        theta1 in -1.5f64..0.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
        let k = SquaredExponential::new(1);
        let theta = vec![theta0, theta1, -2.0];
        let (v, g) = nlml_with_grad(&k, &theta, &xs, &ys);
        prop_assume!(v.is_finite());
        let h = 1e-6;
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += h;
            let fp = nlml(&k, &tp, &xs, &ys);
            tp[j] -= 2.0 * h;
            let fm = nlml(&k, &tp, &xs, &ys);
            prop_assume!(fp.is_finite() && fm.is_finite());
            let num = (fp - fm) / (2.0 * h);
            prop_assert!((num - g[j]).abs() < 1e-3 * (1.0 + num.abs()),
                "param {j}: numeric {num} vs analytic {}", g[j]);
        }
    }

    #[test]
    fn posterior_variance_shrinks_at_observations(xs in points(6, 1)) {
        // Deduplicate: coincident points make the latent variance claim
        // trivially true but can stress the jitter path.
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - 0.5).collect();
        let k = SquaredExponential::new(1);
        let gp = Gp::with_params(k, xs.clone(), ys, vec![0.0, -1.0], -4.0, true).unwrap();
        for x in &xs {
            let (_, var_at_obs) = gp.predict_standardized(x);
            // Far from all data the latent variance approaches the prior
            // variance (= 1 here); at observations it must be far below.
            prop_assert!(var_at_obs < 0.1, "var at observation = {var_at_obs}");
        }
        let (_, var_far) = gp.predict_standardized(&[57.0]);
        prop_assert!(var_far > 0.9);
    }

    #[test]
    fn output_shift_equivariance(shift in -50.0f64..50.0) {
        // Standardization makes the posterior mean equivariant under
        // output shifts: predict(y + c) == predict(y) + c.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos()).collect();
        let ys_shifted: Vec<f64> = ys.iter().map(|y| y + shift).collect();
        let k = SquaredExponential::new(1);
        let params = vec![0.0, -1.0];
        let a = Gp::with_params(k.clone(), xs.clone(), ys, params.clone(), -3.0, true).unwrap();
        let b = Gp::with_params(k, xs, ys_shifted, params, -3.0, true).unwrap();
        for q in [0.05, 0.37, 0.81] {
            let pa = a.predict(&[q]);
            let pb = b.predict(&[q]);
            prop_assert!((pb.mean - pa.mean - shift).abs() < 1e-9);
            prop_assert!((pb.var - pa.var).abs() < 1e-9 * (1.0 + pa.var));
        }
    }
}

/// Bit-identity pins for the cached hot paths: the workspace-backed NLML
/// (value and gradient) and the batched posterior must reproduce the naive
/// per-pair/per-point paths **exactly** — compared via `f64::to_bits`, no
/// tolerances — for every kernel that overrides the batch hooks.
mod bit_identity {
    use super::*;
    use proptest::TestCaseError;

    /// All three batch hooks of `kernel` under the detected backend must
    /// reproduce the forced-scalar workspace bit for bit.
    fn check_kernel_backend_invisible<K: Kernel>(
        kernel: &K,
        theta: &[f64],
        xs: &[Vec<f64>],
    ) -> Result<(), TestCaseError> {
        let weights: Vec<f64> = (0..xs.len() * (xs.len() + 1) / 2)
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let fast = DiffBatch::lower_triangle_with_backend(xs, mfbo_simd::detect());
        let reference = DiffBatch::lower_triangle_with_backend(xs, mfbo_simd::Backend::Scalar);
        let mut kf = vec![0.0; fast.len()];
        let mut kr = vec![0.0; fast.len()];
        kernel.eval_from_diffs(theta, &fast, &mut kf);
        kernel.eval_from_diffs(theta, &reference, &mut kr);
        for (a, b) in kf.iter().zip(&kr) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut gf = vec![0.0; kernel.num_params()];
        let mut gr = vec![0.0; kernel.num_params()];
        kernel.grad_from_diffs(theta, &fast, &weights, &mut gf);
        kernel.grad_from_diffs(theta, &reference, &weights, &mut gr);
        for (a, b) in gf.iter().zip(&gr) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // The recorded value pass writes the same values, and the gradient
        // that reads its records is backend-invisible too.
        let mut rf = vec![K::PairRecord::default(); fast.len()];
        let mut rr = vec![K::PairRecord::default(); fast.len()];
        let mut kf2 = vec![0.0; fast.len()];
        let mut kr2 = vec![0.0; fast.len()];
        kernel.eval_from_diffs_recorded(theta, &fast, &mut kf2, &mut rf);
        kernel.eval_from_diffs_recorded(theta, &reference, &mut kr2, &mut rr);
        for ((a, b), c) in kf2.iter().zip(&kr2).zip(&kf) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
        let mut gf2 = vec![0.0; kernel.num_params()];
        let mut gr2 = vec![0.0; kernel.num_params()];
        kernel.grad_from_diffs_with_values(theta, &fast, &weights, &kf2, &rf, &mut gf2);
        kernel.grad_from_diffs_with_values(theta, &reference, &weights, &kr2, &rr, &mut gr2);
        for (a, b) in gf2.iter().zip(&gr2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        Ok(())
    }

    /// `K` with only the required methods: every batch and row hook falls
    /// back to the per-pair [`Kernel::eval`] defaults.
    #[derive(Debug, Clone)]
    struct PerPair<K>(K);

    impl<K: Kernel> Kernel for PerPair<K> {
        type PairRecord = ();

        fn input_dim(&self) -> usize {
            self.0.input_dim()
        }
        fn num_params(&self) -> usize {
            self.0.num_params()
        }
        fn eval(&self, p: &[f64], a: &[f64], b: &[f64]) -> f64 {
            self.0.eval(p, a, b)
        }
        fn eval_grad(&self, p: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
            self.0.eval_grad(p, a, b, grad)
        }
        fn default_params(&self) -> Vec<f64> {
            self.0.default_params()
        }
        fn param_bounds(&self) -> (Vec<f64>, Vec<f64>) {
            self.0.param_bounds()
        }
    }

    /// `Gp::predict_standardized` under `kernel` against the same frozen
    /// model built over [`PerPair`], query by query, bit for bit.
    fn check_per_pair<K: Kernel>(
        kernel: K,
        xs: &[Vec<f64>],
        ys: &[f64],
        theta: &[f64],
        inference: mfbo_gp::InferenceMode,
        queries: &[Vec<f64>],
    ) -> Result<(), TestCaseError> {
        fn build<K: Kernel>(
            k: K,
            xs: &[Vec<f64>],
            ys: &[f64],
            theta: &[f64],
            inference: mfbo_gp::InferenceMode,
        ) -> Gp<K> {
            Gp::with_params_inference(
                k,
                xs.to_vec(),
                ys.to_vec(),
                theta.to_vec(),
                -2.5,
                true,
                inference,
                mfbo_pool::Parallelism::Serial,
            )
            .unwrap()
        }
        let fast = build(kernel.clone(), xs, ys, theta, inference);
        let reference = build(PerPair(kernel), xs, ys, theta, inference);
        for q in queries.iter().chain(xs.iter().take(2)) {
            let (fm, fv) = fast.predict_standardized(q);
            let (rm, rv) = reference.predict_standardized(q);
            prop_assert_eq!(fm.to_bits(), rm.to_bits());
            prop_assert_eq!(fv.to_bits(), rv.to_bits());
        }
        Ok(())
    }

    fn check_nlml_cached<K: Kernel>(
        kernel: &K,
        theta: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<(), TestCaseError> {
        let ws = NlmlWorkspace::new(xs);
        let naive = nlml(kernel, theta, xs, ys);
        let cached = nlml_cached(kernel, theta, &ws, ys);
        prop_assert_eq!(naive.to_bits(), cached.to_bits());
        let (nv, ng) = nlml_with_grad(kernel, theta, xs, ys);
        let (cv, cg) = nlml_with_grad_cached(kernel, theta, &ws, ys);
        prop_assert_eq!(nv.to_bits(), cv.to_bits());
        for (a, b) in ng.iter().zip(&cg) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        Ok(())
    }

    /// The value half of a cached NLML evaluation, then the gradient half
    /// from its state, is the uncached [`nlml_with_grad`] bit for bit —
    /// the (value, gradient) pair L-BFGS sees at every accepted point.
    fn check_value_then_grad<K: Kernel>(
        kernel: &K,
        theta: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<(), TestCaseError> {
        let ws = NlmlWorkspace::new(xs);
        let (v, state) = nlml_value_state(kernel, theta, &ws, ys);
        let g = nlml_state_grad(kernel, theta, &ws, state);
        let (rv, rg) = nlml_with_grad(kernel, theta, xs, ys);
        prop_assert_eq!(v.to_bits(), rv.to_bits());
        prop_assert_eq!(g.len(), rg.len());
        for (a, b) in g.iter().zip(&rg) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        Ok(())
    }

    /// Smooth test targets from the first and last coordinate of each point.
    fn targets(xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter()
            .map(|x| (4.0 * x[0]).sin() + x.last().unwrap() * x[0])
            .collect()
    }

    #[test]
    fn value_then_grad_of_unfactorizable_theta_is_inf_and_zeros() {
        // σ_f² = e^800 overflows, so no jitter rescues the kernel matrix.
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let ys = targets(&xs);
        let k = SquaredExponential::new(1);
        let theta = [400.0, -1.0, -2.0];
        let (rv, rg) = nlml_with_grad(&k, &theta, &xs, &ys);
        assert_eq!(rv, f64::INFINITY);
        assert_eq!(rg, vec![0.0; 3]);
        check_value_then_grad(&k, &theta, &xs, &ys).unwrap();
        let nk = NargpKernel::new(1);
        let mut ntheta = nk.default_params();
        ntheta[0] = 400.0;
        ntheta.push(-2.0);
        let nxs: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], x[0] * x[0]]).collect();
        assert_eq!(nlml_with_grad(&nk, &ntheta, &nxs, &ys).0, f64::INFINITY);
        check_value_then_grad(&nk, &ntheta, &nxs, &ys).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn value_then_grad_bit_identical_se_d1(
            xs in points(9, 1),
            logsf in -0.5f64..0.5,
            logl in -2.0f64..0.5,
            logn in -4.0f64..-1.0,
        ) {
            let k = SquaredExponential::new(1);
            check_value_then_grad(&k, &[logsf, logl, logn], &xs, &targets(&xs))?;
        }

        #[test]
        fn value_then_grad_bit_identical_se_d5(
            xs in points(11, 5),
            logsf in -0.5f64..0.5,
            logl in -1.0f64..0.5,
            logn in -4.0f64..-1.0,
        ) {
            let k = SquaredExponential::new(5);
            let theta = [logsf, logl, logl - 0.3, logl + 0.2, logl, logl - 0.1, logn];
            check_value_then_grad(&k, &theta, &xs, &targets(&xs))?;
        }

        #[test]
        fn value_then_grad_bit_identical_nargp_d1(
            xs in points(9, 2),
            shift in -0.5f64..0.5,
            logn in -4.0f64..-1.0,
        ) {
            let k = NargpKernel::new(1);
            let mut theta: Vec<f64> = k.default_params().iter().map(|p| p + shift).collect();
            theta.push(logn);
            check_value_then_grad(&k, &theta, &xs, &targets(&xs))?;
        }

        #[test]
        fn value_then_grad_bit_identical_nargp_d5(
            xs in points(10, 6),
            shift in -0.5f64..0.5,
            logn in -4.0f64..-1.0,
        ) {
            let k = NargpKernel::new(5);
            let mut theta: Vec<f64> = k.default_params().iter().map(|p| p + shift).collect();
            theta.push(logn);
            check_value_then_grad(&k, &theta, &xs, &targets(&xs))?;
        }

        /// Differential oracle for the cross-iteration fit cache: a cache
        /// grown by arbitrary append/truncate/sync sequences must serve a
        /// batch bit-identical to a fresh `lower_triangle` build over the
        /// same points — diffs and SIMD transpose alike, under both the
        /// detected backend and forced scalar (exercised by the
        /// `MFBO_SIMD` CI matrix).
        #[test]
        fn fit_cache_append_bit_identity_vs_fresh(
            xs in points(12, 3),
            split in 1usize..11,
            resync_at in 1usize..11,
        ) {
            let mut cache = mfbo_gp::FitCache::new();
            cache.append_points(&xs[..split]);
            cache.append_points(&xs[split..]);
            for be in [mfbo_simd::detect(), mfbo_simd::Backend::Scalar] {
                let fresh = DiffBatch::lower_triangle_with_backend(&xs, be);
                let view = cache.batch_with_backend(be);
                prop_assert_eq!(view.len(), fresh.len());
                for (a, b) in view.diffs().iter().zip(fresh.diffs()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                match (view.simd_rows(), fresh.simd_rows()) {
                    (None, None) => {}
                    (Some((ba, ra)), Some((bb, rb))) => {
                        prop_assert_eq!(ba, bb);
                        for (a, b) in ra.iter().zip(rb) {
                            prop_assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                    _ => prop_assert!(false, "simd_rows presence mismatch"),
                }
            }
            // Sync to a prefix + divergent tail (the constant-liar flow).
            let mut target = xs[..resync_at].to_vec();
            target.push(vec![0.123, 0.456, 0.789]);
            cache.sync(&target);
            let fresh = DiffBatch::lower_triangle_with_backend(&target, mfbo_simd::detect());
            let view = cache.batch_with_backend(mfbo_simd::detect());
            prop_assert_eq!(view.len(), fresh.len());
            for (a, b) in view.diffs().iter().zip(fresh.diffs()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// A shared-workspace NLML (value + gradient) is bit-identical to
        /// the per-model owned workspace — the invariant behind the
        /// default-on bundle distance-cache sharing.
        #[test]
        fn shared_workspace_nlml_bit_identity(
            xs in points(9, 2),
            logsf in -0.5f64..0.5,
            logl in -1.5f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0] - x[1]).sin()).collect();
            let k = SquaredExponential::new(2);
            let theta = [logsf, logl, -1.0, -2.0];
            let owned = NlmlWorkspace::new(&xs);
            let batch = DiffBatch::lower_triangle(&xs);
            let shared = NlmlWorkspace::from_batch(&batch, xs.len());
            prop_assert_eq!(
                nlml_cached(&k, &theta, &owned, &ys).to_bits(),
                nlml_cached(&k, &theta, &shared, &ys).to_bits()
            );
            let (ov, og) = nlml_with_grad_cached(&k, &theta, &owned, &ys);
            let (sv, sg) = nlml_with_grad_cached(&k, &theta, &shared, &ys);
            prop_assert_eq!(ov.to_bits(), sv.to_bits());
            for (a, b) in og.iter().zip(&sg) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn cached_nlml_bit_identical_se(
            xs in points(9, 2),
            logsf in -0.5f64..0.5,
            logl in -1.5f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0] - x[1]).sin()).collect();
            let k = SquaredExponential::new(2);
            check_nlml_cached(&k, &[logsf, logl, -1.0, -2.0], &xs, &ys)?;
        }

        #[test]
        fn cached_nlml_bit_identical_matern(
            xs in points(8, 2),
            logsf in -0.5f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0] - 0.3 * x[1]).collect();
            let k = Matern52::new(2);
            check_nlml_cached(&k, &[logsf, -0.4, 0.2, -2.5], &xs, &ys)?;
        }

        #[test]
        fn cached_nlml_bit_identical_nargp(xs in points(8, 3)) {
            // Augmented input: 2 design dims + 1 fidelity feature.
            let ys: Vec<f64> = xs.iter().map(|x| x[0] + x[1] * x[2]).collect();
            let k = NargpKernel::new(2);
            let mut theta = k.default_params();
            theta.push(-2.0);
            check_nlml_cached(&k, &theta, &xs, &ys)?;
        }

        #[test]
        fn batched_predict_bit_identical_to_pointwise(
            xs in points(10, 2),
            queries in points(6, 2),
            logl in -1.0f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos() + x[1]).collect();
            let gp = Gp::with_params(
                SquaredExponential::new(2),
                xs,
                ys,
                vec![0.1, logl, logl],
                -2.0,
                true,
            )
            .unwrap();
            let batch = gp.predict_batch_standardized(&queries);
            let raw = gp.predict_batch(&queries);
            for ((q, (bm, bv)), pr) in queries.iter().zip(&batch).zip(&raw) {
                let (m, v) = gp.predict_standardized(q);
                prop_assert_eq!(m.to_bits(), bm.to_bits());
                prop_assert_eq!(v.to_bits(), bv.to_bits());
                let p = gp.predict(q);
                prop_assert_eq!(p.mean.to_bits(), pr.mean.to_bits());
                prop_assert_eq!(p.var.to_bits(), pr.var.to_bits());
            }
        }

        /// The SIMD backend choice must be bit-invisible end to end: forced
        /// scalar and the detected backend produce identical predictions.
        /// Query counts sweep the lane-group remainders (0..lanes-1 queries
        /// left over after the interleaved groups).
        #[test]
        fn predict_batch_backend_bit_invisible(
            xs in points(11, 2),
            queries in points(9, 2),
            m in 1usize..9,
            logl in -1.0f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).sin() - x[1]).collect();
            let gp = Gp::with_params(
                SquaredExponential::new(2),
                xs,
                ys,
                vec![0.1, logl, logl],
                -2.0,
                true,
            )
            .unwrap();
            let queries = &queries[..m];
            let fast = gp.predict_batch_standardized_with_backend(queries, mfbo_simd::detect());
            let reference =
                gp.predict_batch_standardized_with_backend(queries, mfbo_simd::Backend::Scalar);
            for ((fm, fv), (rm, rv)) in fast.iter().zip(&reference) {
                prop_assert_eq!(fm.to_bits(), rm.to_bits());
                prop_assert_eq!(fv.to_bits(), rv.to_bits());
            }
        }

        /// Kernel batch hooks under every constructible backend reproduce
        /// the scalar workspace bit for bit, for all three kernels.
        #[test]
        fn kernel_batch_hooks_backend_bit_invisible(xs in points(9, 3)) {
            check_kernel_backend_invisible(&SquaredExponential::new(3), &[0.2, -0.5, 0.1, -1.0], &xs)?;
            check_kernel_backend_invisible(&Matern52::new(3), &[0.2, -0.5, 0.1, -1.0], &xs)?;
            let nargp = NargpKernel::new(2);
            let theta = nargp.default_params();
            check_kernel_backend_invisible(&nargp, &theta, &xs)?;
        }

        /// The factored, lane-interleaved eq. (10) path must reproduce both
        /// the generic batch path on explicitly built augmented rows
        /// `(x, f_k)` and the single-query posterior of each row: random
        /// NARGP models with training sets across lane-group boundaries,
        /// S ∈ {1, 12, 20} stratified values, a plug-in query at a training
        /// input (near-zero posterior variance), and an iterative-engine
        /// model whose variance comes from the subset factor.
        #[test]
        fn nargp_strata_bit_identical_to_explicit_rows(
            flat in prop::collection::vec(0.0f64..1.0, 21 * 3),
            n in 1usize..22,
            theta in prop::collection::vec(-1.5f64..0.5, 8),
            design in points(1, 2),
            mu in -1.0f64..2.0,
            sigma in 0.0f64..1.0,
        ) {
            use mfbo_gp::InferenceMode;
            use mfbo_pool::Parallelism;
            let xs: Vec<Vec<f64>> = flat.chunks(3).take(n).map(|c| c.to_vec()).collect();
            let ys: Vec<f64> = xs.iter().map(|z| z[0] - z[1] * z[2]).collect();
            let fit = |mode| {
                Gp::with_params_inference(
                    NargpKernel::new(2),
                    xs.clone(),
                    ys.clone(),
                    theta.clone(),
                    -3.0,
                    true,
                    mode,
                    Parallelism::Serial,
                )
                .unwrap()
            };
            let models = [
                fit(InferenceMode::Exact),
                fit(InferenceMode::Iterative { subset: (n / 2).max(1), max_iters: 64 }),
            ];
            let x = &design[0];
            let mut cases: Vec<(Vec<f64>, Vec<f64>)> = [1usize, 12, 20]
                .iter()
                .map(|&s| {
                    let strata = (0..s)
                        .map(|k| mu + sigma * mfbo_linalg::norm_inv_cdf((k as f64 + 0.5) / s as f64))
                        .collect();
                    (x.clone(), strata)
                })
                .collect();
            cases.push((xs[n - 1][..2].to_vec(), vec![xs[n - 1][2]]));
            for gp in &models {
                for (x, strata) in &cases {
                    let rows: Vec<Vec<f64>> = strata
                        .iter()
                        .map(|&f| {
                            let mut z = x.clone();
                            z.push(f);
                            z
                        })
                        .collect();
                    let reference = gp.predict_batch_standardized(&rows);
                    let factored = gp.predict_strata_standardized(x, strata);
                    prop_assert_eq!(factored.len(), reference.len());
                    for (((fm, fv), (rm, rv)), row) in factored.iter().zip(&reference).zip(&rows) {
                        prop_assert_eq!(fm.to_bits(), rm.to_bits());
                        prop_assert_eq!(fv.to_bits(), rv.to_bits());
                        let (sm, sv) = gp.predict_standardized(row);
                        prop_assert_eq!(fm.to_bits(), sm.to_bits());
                        prop_assert_eq!(fv.to_bits(), sv.to_bits());
                    }
                }
            }
        }

        /// The NARGP gradient that reads the value pass's `(k1, k2, k3)`
        /// records must reproduce the per-pair `eval_grad` accumulation bit
        /// for bit, for d ∈ {1, 5}, over the SIMD and the scalar difference
        /// layouts.
        #[test]
        fn nargp_grad_with_records_bit_identical_to_eval_grad(
            flat in prop::collection::vec(0.0f64..1.0, 13 * 6),
            n in 1usize..13,
            theta in prop::collection::vec(-1.5f64..0.5, 14),
            wseed in -1.0f64..1.0,
        ) {
            for d in [1usize, 5] {
                let xs: Vec<Vec<f64>> = flat.chunks(6).take(n).map(|c| c[..=d].to_vec()).collect();
                let k = NargpKernel::new(d);
                let p = &theta[..k.num_params()];
                let count = n * (n + 1) / 2;
                let weights: Vec<f64> =
                    (0..count).map(|q| ((q as f64 + wseed) * 0.37).sin() - 0.3).collect();
                let mut want = vec![0.0; k.num_params()];
                let mut kg = vec![0.0; k.num_params()];
                let reference = DiffBatch::lower_triangle_with_backend(&xs, mfbo_simd::Backend::Scalar);
                for (q, &w) in weights.iter().enumerate() {
                    let (a, b) = reference.pair_points(q);
                    k.eval_grad(p, a, b, &mut kg);
                    for (g, &dk) in want.iter_mut().zip(&kg) {
                        *g += w * dk;
                    }
                }
                for be in [mfbo_simd::detect(), mfbo_simd::Backend::Scalar] {
                    let batch = DiffBatch::lower_triangle_with_backend(&xs, be);
                    let mut values = vec![0.0; count];
                    let mut records = vec![[0.0; 3]; count];
                    k.eval_from_diffs_recorded(p, &batch, &mut values, &mut records);
                    let mut got = vec![0.0; k.num_params()];
                    k.grad_from_diffs_with_values(p, &batch, &weights, &values, &records, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(g.to_bits(), w.to_bits());
                    }
                }
            }
        }

        /// The hoisted single-query posterior must reproduce the per-pair
        /// `Kernel::eval` path bit for bit: the same model built over a
        /// wrapper kernel that keeps every default hook is the reference.
        #[test]
        fn predict_standardized_bit_identical_to_per_pair_eval(
            xs in points(16, 3),
            queries in points(4, 3),
            logl in -1.0f64..0.5,
        ) {
            use mfbo_gp::InferenceMode;
            let design: Vec<Vec<f64>> = xs.iter().map(|z| z[..2].to_vec()).collect();
            let dq: Vec<Vec<f64>> = queries.iter().map(|z| z[..2].to_vec()).collect();
            let ys: Vec<f64> = xs.iter().map(|z| (3.0 * z[0]).sin() + z[1] * z[2]).collect();
            let se = [0.1, logl, logl];
            check_per_pair(SquaredExponential::new(2), &design, &ys, &se, InferenceMode::Exact, &dq)?;
            check_per_pair(Matern52::new(2), &design, &ys, &se, InferenceMode::Exact, &dq)?;
            let nargp = NargpKernel::new(2);
            let theta = nargp.default_params();
            check_per_pair(nargp, &xs, &ys, &theta, InferenceMode::Exact, &queries)?;
            let iterative = InferenceMode::Iterative { subset: 8, max_iters: 64 };
            check_per_pair(SquaredExponential::new(2), &design, &ys, &se, iterative, &dq)?;
        }

        #[test]
        fn append_observation_bit_identical_to_frozen_rebuild(
            xs in points(12, 2),
            ynew in -1.0f64..1.0,
        ) {
            // Without re-standardization (standardize = false) the appended
            // model must equal a from-scratch rebuild on the extended data
            // bit for bit: same factor recurrence, same α solves, same NLML
            // quadratic form.
            let ys: Vec<f64> = xs.iter().map(|x| x[0] - 0.5 * x[1]).collect();
            let (head, tail) = xs.split_at(11);
            let params = vec![0.0, -0.7, -0.3];
            let mut grown = Gp::with_params(
                SquaredExponential::new(2),
                head.to_vec(),
                ys[..11].to_vec(),
                params.clone(),
                -2.0,
                false,
            )
            .unwrap();
            grown.append_observation(tail[0].clone(), ynew).unwrap();
            let mut ys_full = ys[..11].to_vec();
            ys_full.push(ynew);
            let rebuilt = Gp::with_params(
                SquaredExponential::new(2),
                xs.clone(),
                ys_full,
                params,
                -2.0,
                false,
            )
            .unwrap();
            prop_assert_eq!(grown.nlml().to_bits(), rebuilt.nlml().to_bits());
            for q in [[0.2, 0.8], [0.6, 0.1]] {
                let (gm, gv) = grown.predict_standardized(&q);
                let (rm, rv) = rebuilt.predict_standardized(&q);
                prop_assert_eq!(gm.to_bits(), rm.to_bits());
                prop_assert_eq!(gv.to_bits(), rv.to_bits());
            }
        }
    }
    /// Every product of the strata means is `-0.0`: the query's design
    /// point is so far from the training inputs that each cross-covariance
    /// underflows to `+0.0`, and every `alpha` entry is negative. A sum
    /// started from `-0.0` stays `-0.0`, as `.sum()` (and so
    /// `mfbo_linalg::dot` in the single-query path) does; one started from
    /// `+0.0` would end at `+0.0`.
    #[test]
    fn strata_means_start_from_negative_zero() {
        use mfbo_gp::InferenceMode;
        use mfbo_pool::Parallelism;
        for n in [1usize, 3, 4, 5, 9] {
            // Well separated inputs and a short lengthscale: K is nearly
            // diagonal, so alpha keeps the sign of the all-negative ys.
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64, 0.0, 0.1 * i as f64])
                .collect();
            let ys: Vec<f64> = (0..n).map(|i| -1.0 - i as f64).collect();
            let theta = vec![0.0, -0.5, 0.0, -5.0, -5.0, -1.0, -5.0, -5.0];
            for mode in [
                InferenceMode::Exact,
                InferenceMode::Iterative {
                    subset: 2,
                    max_iters: 64,
                },
            ] {
                let gp = Gp::with_params_inference(
                    NargpKernel::new(2),
                    xs.clone(),
                    ys.clone(),
                    theta.clone(),
                    -3.0,
                    false,
                    mode,
                    Parallelism::Serial,
                )
                .unwrap();
                let x = [50.0, 50.0];
                let strata: Vec<f64> = (0..6).map(|k| k as f64 * 0.3 - 0.7).collect();
                for (&f, &(m, _)) in strata
                    .iter()
                    .zip(&gp.predict_strata_standardized(&x, &strata))
                {
                    let (rm, _) = gp.predict_standardized(&[x[0], x[1], f]);
                    assert_eq!(rm.to_bits(), (-0.0f64).to_bits(), "n={n}");
                    assert_eq!(m.to_bits(), rm.to_bits(), "n={n}");
                }
            }
        }
    }
}

#[test]
fn training_is_deterministic_given_seed() {
    let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
    let fit = || {
        let mut rng = StdRng::seed_from_u64(5);
        Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::default(),
            &mut rng,
        )
        .unwrap()
    };
    let a = fit();
    let b = fit();
    assert_eq!(a.theta(), b.theta());
    assert_eq!(a.nlml(), b.nlml());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The iterative (CG) engine is a drop-in approximation of the exact
    /// one: identical hyperparameters, means within the CG tolerance, and
    /// variances no tighter than exact (conditioning on a subset can only
    /// widen the posterior).
    #[test]
    fn iterative_engine_matches_exact_to_tolerance(
        xs in points(24, 2),
        q in points(6, 2),
    ) {
        use mfbo_gp::InferenceMode;
        use mfbo_pool::Parallelism;
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (4.0 * x[0]).sin() + 0.5 * x[1] * x[1])
            .collect();
        let params = vec![0.0, -0.5, -0.5];
        let fit = |mode| {
            Gp::with_params_inference(
                SquaredExponential::new(2),
                xs.clone(),
                ys.clone(),
                params.clone(),
                -3.0,
                true,
                mode,
                Parallelism::Serial,
            )
            .unwrap()
        };
        let exact = fit(InferenceMode::Exact);
        let iter = fit(InferenceMode::Iterative { subset: 12, max_iters: 128 });
        for point in &q {
            let (em, ev) = exact.predict_standardized(point);
            let (im, iv) = iter.predict_standardized(point);
            // The mean uses the full-data CG solve; DEFAULT_CG_RTOL drives
            // the relative residual far below this assertion's slack.
            prop_assert!((em - im).abs() <= 1e-5 * (1.0 + em.abs()), "{em} vs {im}");
            prop_assert!(iv >= ev - 1e-9, "iterative variance {iv} tighter than exact {ev}");
        }
    }
}
